//! One repetition of a workload: build the machine, launch the world, time
//! set-up and the timed phase on both clocks, and (traced) record the
//! benchmark's spans and each layer's public counters around the timed
//! phase.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use elan4::{ClusterStats, HostBuf, NicConfig};
use openmpi_core::{
    Communicator, Metrics, Mpi, Placement, PtlTraffic, Status, TraceLog, Transports, Universe,
};
use qsnet::{FabricStats, LinkSnapshot, LinkTotals};

use crate::workloads::Plan;

/// Trace-ring slots per rank in the traced run; sized so no workload's
/// timed phase drops an event (checked).
const TRACE_CAPACITY: usize = 1 << 20;

/// Which part of a repetition runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// MPI_Init only: every rank returns from its entry at once.
    InitOnly,
    /// Init, warm-up and the timed phase.
    Full,
}

/// How one repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct RepCfg {
    /// What runs.
    pub phase: Phase,
    /// `StackConfig::metrics` and `trace` on, benchmark spans recorded.
    pub traced: bool,
    /// Payload deposits to corrupt once the timed phase starts.
    pub corrupt: u64,
}

/// The virtual-clock results of a repetition: deterministic, so two
/// repetitions of one plan must agree on every field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Virt {
    /// When the last rank returned from MPI_Init, ns.
    pub init_ns: u64,
    /// Length of the timed phase, ns.
    pub timed_ns: u64,
    /// Per-op latency, ns, in op order.
    pub lat_ns: Vec<u64>,
    /// Payload bytes landed in receive buffers during the timed phase.
    pub landed: u64,
    /// Simulation end time, ns.
    pub end_ns: u64,
    /// Kernel events dispatched.
    pub events: u64,
    /// Kernel schedule fingerprint.
    pub schedule_hash: u64,
}

/// One benchmark span: a call into a layer's public API, timed from the
/// benchmark's own code on both clocks.
#[derive(Clone, Debug)]
pub struct Span {
    /// The API call, or `op`/`round` for the benchmark's own loop body.
    pub name: &'static str,
    /// Rank that made the call.
    pub rank: u32,
    /// Op (or round) id it served.
    pub op: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// Virtual start and end, ns.
    pub virt: (u64, u64),
    /// Wall start and end, ns since the repetition started.
    pub wall: (u64, u64),
}

/// One rank's counters around the timed phase (traced only).
pub struct RankRecord {
    /// The rank.
    pub rank: u32,
    /// Metrics at the start and end of the timed phase.
    pub metrics: (Metrics, Metrics),
    /// Elan4 PTL traffic at the start and end of the timed phase.
    pub traffic: (Vec<PtlTraffic>, Vec<PtlTraffic>),
    /// The trace ring, restarted at the start of the timed phase.
    pub trace: TraceLog,
}

/// Machine-wide counters at one instant (traced only).
#[derive(Clone)]
pub struct MachineSnap {
    /// Virtual time of the snapshot, ns.
    pub at_ns: u64,
    /// NIC counters.
    pub nic: ClusterStats,
    /// Fabric counters.
    pub fabric: FabricStats,
    /// Every link that carried a packet.
    pub links: Vec<LinkSnapshot>,
    /// Rank 0's node's ejection link, summed over rails.
    pub victim_ej: LinkTotals,
}

/// Everything one repetition measured.
pub struct RepOut {
    /// `Universe::new` until every rank returned from MPI_Init, s.
    pub init_wall_s: f64,
    /// `Universe::new` until every rank finished MPI_Init and warm-up, s.
    pub setup_s: f64,
    /// Timed phase, wall, s.
    pub work_wall_s: f64,
    /// Wall time of each block of ops, ns.
    pub blocks_ns: Vec<u64>,
    /// Deterministic results.
    pub virt: Virt,
    /// The kernel's report.
    pub report: qsim::Report,
    /// Ops in the timed phase.
    pub attempted: u64,
    /// Ops that returned an error or failed verification.
    pub failed: u64,
    /// Spans of every rank (traced only).
    pub spans: Vec<Span>,
    /// Per-rank counters (traced only).
    pub ranks: Vec<RankRecord>,
    /// Machine counters at the start and end of the timed phase (traced only).
    pub machine: Option<(MachineSnap, MachineSnap)>,
}

/// State shared by every rank of one repetition.
struct Shared {
    t0: Instant,
    ranks: usize,
    cfg: RepCfg,
    init_ns: AtomicU64,
    init_wall_ns: AtomicU64,
    setup_ns: AtomicU64,
    start_wall_ns: AtomicU64,
    end_wall_ns: AtomicU64,
    start_virt_ns: AtomicU64,
    end_virt_ns: AtomicU64,
    finished: AtomicUsize,
    lat_start: Vec<AtomicU64>,
    lat_end: Vec<AtomicU64>,
    failed: Vec<AtomicBool>,
    failed_unattributed: AtomicU64,
    landed: AtomicU64,
    blocks: Mutex<Vec<u64>>,
    spans: Mutex<Vec<Span>>,
    records: Mutex<Vec<RankRecord>>,
    machine: Mutex<(Option<MachineSnap>, Option<MachineSnap>)>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a rank panicked while holding benchmark state")
}

impl Shared {
    fn wall_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Run one repetition of `plan`.
pub fn run_rep(plan: &Arc<Plan>, cfg: RepCfg) -> RepOut {
    let ops = if cfg.phase == Phase::Full {
        plan.ops()
    } else {
        0
    };
    let sh = Arc::new(Shared {
        t0: Instant::now(),
        ranks: plan.ranks(),
        cfg,
        init_ns: AtomicU64::new(0),
        init_wall_ns: AtomicU64::new(0),
        setup_ns: AtomicU64::new(0),
        start_wall_ns: AtomicU64::new(0),
        end_wall_ns: AtomicU64::new(0),
        start_virt_ns: AtomicU64::new(0),
        end_virt_ns: AtomicU64::new(0),
        finished: AtomicUsize::new(0),
        lat_start: (0..ops).map(|_| AtomicU64::new(0)).collect(),
        lat_end: (0..ops).map(|_| AtomicU64::new(0)).collect(),
        failed: (0..ops).map(|_| AtomicBool::new(false)).collect(),
        failed_unattributed: AtomicU64::new(0),
        landed: AtomicU64::new(0),
        blocks: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
        records: Mutex::new(Vec::new()),
        machine: Mutex::new((None, None)),
    });
    let mut stack = plan.stack();
    if cfg.traced {
        stack.metrics = true;
        stack.trace = true;
        stack.trace_capacity = TRACE_CAPACITY;
    }
    let uni = Universe::new(
        NicConfig::default(),
        plan.fabric(),
        stack,
        Transports::default(),
    );
    let (p2, s2) = (plan.clone(), sh.clone());
    let report = uni.run_world(plan.ranks(), Placement::RoundRobin, move |mpi| {
        let mut r = Rank::new(&mpi, &s2);
        if s2.cfg.phase == Phase::Full {
            p2.body(&mut r);
            r.finish();
        }
    });
    let ns = |a: &AtomicU64| a.load(Ordering::SeqCst);
    let failed = sh
        .failed
        .iter()
        .filter(|f| f.load(Ordering::SeqCst))
        .count() as u64
        + ns(&sh.failed_unattributed);
    let (before, after) = std::mem::take(&mut *lock(&sh.machine));
    let mut ranks = std::mem::take(&mut *lock(&sh.records));
    ranks.sort_by_key(|r| r.rank);
    let blocks_ns = std::mem::take(&mut *lock(&sh.blocks));
    let spans = std::mem::take(&mut *lock(&sh.spans));
    RepOut {
        init_wall_s: ns(&sh.init_wall_ns) as f64 / 1e9,
        setup_s: ns(&sh.setup_ns) as f64 / 1e9,
        work_wall_s: ns(&sh.end_wall_ns).saturating_sub(ns(&sh.start_wall_ns)) as f64 / 1e9,
        blocks_ns,
        virt: Virt {
            init_ns: ns(&sh.init_ns),
            timed_ns: ns(&sh.end_virt_ns).saturating_sub(ns(&sh.start_virt_ns)),
            lat_ns: sh
                .lat_start
                .iter()
                .zip(&sh.lat_end)
                .map(|(a, b)| ns(b).saturating_sub(ns(a)))
                .collect(),
            landed: ns(&sh.landed),
            end_ns: report.end_time.as_ns(),
            events: report.events_processed,
            schedule_hash: report.schedule_hash,
        },
        report,
        attempted: ops as u64,
        failed: failed.min(ops as u64),
        spans,
        ranks,
        machine: before.zip(after),
    }
}

/// A rank's handle on the repetition: the workload bodies call it to mark
/// the end of warm-up, block boundaries, spans, latencies and failures.
pub struct Rank<'a> {
    /// The rank's MPI handle.
    pub mpi: &'a Mpi,
    /// `MPI_COMM_WORLD`.
    pub world: Communicator,
    sh: &'a Shared,
    spans: Vec<Span>,
    open: Vec<usize>,
    block_start: Option<u64>,
    before: Option<(Metrics, Vec<PtlTraffic>)>,
}

impl<'a> Rank<'a> {
    fn new(mpi: &'a Mpi, sh: &'a Shared) -> Rank<'a> {
        sh.init_ns.fetch_max(mpi.now().as_ns(), Ordering::SeqCst);
        sh.init_wall_ns.fetch_max(sh.wall_ns(), Ordering::SeqCst);
        Rank {
            mpi,
            world: mpi.world(),
            sh,
            spans: Vec::new(),
            open: Vec::new(),
            block_start: None,
            before: None,
        }
    }

    /// This rank's number in the world.
    pub fn rank(&self) -> usize {
        self.mpi.rank()
    }

    /// End of warm-up: synchronize, then start the timed phase on both
    /// clocks and take the "before" counters.
    pub fn warmed(&mut self) {
        self.mpi.barrier(&self.world);
        let (sh, mpi) = (self.sh, self.mpi);
        let ep = mpi.endpoint();
        if mpi.rank() == 0 {
            let now = sh.wall_ns();
            sh.setup_ns.store(now, Ordering::SeqCst);
            sh.start_wall_ns.store(now, Ordering::SeqCst);
            sh.start_virt_ns.store(mpi.now().as_ns(), Ordering::SeqCst);
            if sh.cfg.traced {
                lock(&sh.machine).0 = Some(machine_snap(mpi));
            }
            if sh.cfg.corrupt > 0 {
                ep.cluster.inject_payload_corruption(sh.cfg.corrupt);
            }
        }
        if sh.cfg.traced {
            self.before = Some((ep.metrics_snapshot(), ep.ptls.lock().traffic()));
            let fresh = TraceLog::with_capacity(TRACE_CAPACITY);
            *ep.trace.lock() = fresh;
        }
    }

    /// Start a new block of ops (rank 0 keeps the block clock).
    pub fn block(&mut self) {
        if self.mpi.rank() != 0 {
            return;
        }
        let now = self.sh.wall_ns();
        if let Some(t) = self.block_start.replace(now) {
            lock(&self.sh.blocks).push(now - t);
        }
    }

    /// Open a span; it nests under the innermost open one.
    pub fn open(&mut self, name: &'static str, op: usize) -> usize {
        if !self.sh.cfg.traced {
            return 0;
        }
        let now = self.mpi.now().as_ns();
        self.spans.push(Span {
            name,
            rank: self.mpi.rank() as u32,
            op: op as u64,
            parent: self.open.last().copied(),
            virt: (now, now),
            wall: (self.sh.wall_ns(), 0),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the span `open` returned.
    pub fn close(&mut self, id: usize) {
        if !self.sh.cfg.traced {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let s = &mut self.spans[id];
        s.virt.1 = self.mpi.now().as_ns();
        s.wall.1 = self.sh.wall_ns();
    }

    /// Record op `op`'s virtual start and end. When several ranks report
    /// one op, its latency runs from the last start to the last end.
    pub fn latency(&self, op: usize, start: qsim::Time, end: qsim::Time) {
        self.sh.lat_start[op].fetch_max(start.as_ns(), Ordering::SeqCst);
        self.sh.lat_end[op].fetch_max(end.as_ns(), Ordering::SeqCst);
    }

    /// Mark op `op` failed (`None`: a failure no op can be named for).
    pub fn fail(&self, op: Option<usize>) {
        match op {
            Some(i) => self.sh.failed[i].store(true, Ordering::SeqCst),
            None => {
                self.sh.failed_unattributed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Count payload bytes that landed in a receive buffer.
    pub fn landed(&self, bytes: usize) {
        self.sh.landed.fetch_add(bytes as u64, Ordering::SeqCst);
    }

    /// End of this rank's timed phase. The last rank to finish closes the
    /// phase on both clocks and takes the machine's "after" counters.
    fn finish(mut self) {
        self.block();
        let (sh, mpi) = (self.sh, self.mpi);
        sh.end_virt_ns
            .fetch_max(mpi.now().as_ns(), Ordering::SeqCst);
        sh.end_wall_ns.fetch_max(sh.wall_ns(), Ordering::SeqCst);
        let last = sh.finished.fetch_add(1, Ordering::SeqCst) + 1 == sh.ranks;
        if !sh.cfg.traced {
            return;
        }
        if last {
            lock(&sh.machine).1 = Some(machine_snap(mpi));
        }
        let ep = mpi.endpoint();
        let before = self.before.take().expect("warmed() ran before finish()");
        let trace = std::mem::replace(&mut *ep.trace.lock(), TraceLog::with_capacity(1));
        lock(&sh.records).push(RankRecord {
            rank: mpi.rank() as u32,
            metrics: (before.0, ep.metrics_snapshot()),
            traffic: (before.1, ep.ptls.lock().traffic()),
            trace,
        });
        let mut all = lock(&sh.spans);
        let base = all.len();
        all.extend(self.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

fn machine_snap(mpi: &Mpi) -> MachineSnap {
    let now = mpi.now();
    let cluster = &mpi.universe().cluster;
    let fabric = cluster.fabric();
    MachineSnap {
        at_ns: now.as_ns(),
        nic: cluster.stats(),
        fabric: fabric.stats(),
        links: fabric.link_snapshot(now),
        // Round-robin placement puts rank 0, the incast victim, on node 0.
        victim_ej: fabric.node_link_totals(0).1,
    }
}

/// Application tag of every point-to-point message the workloads send.
pub const TAG: i32 = 0;

/// Blocking send that surfaces errors: `isend` then `wait_result`.
pub fn send(mpi: &Mpi, w: &Communicator, dst: usize, buf: &HostBuf, len: usize) -> bool {
    let req = mpi.isend(w, dst, TAG, buf, len);
    mpi.wait_result(req).is_ok()
}

/// Blocking receive that surfaces errors: `irecv` then `wait_status`.
pub fn recv(mpi: &Mpi, w: &Communicator, src: i32, buf: &HostBuf, len: usize) -> Option<Status> {
    let req = mpi.irecv(w, src, TAG, buf, len);
    let st = mpi.wait_status(req);
    st.error.is_none().then_some(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pingpong() -> Arc<Plan> {
        Arc::new(Plan::new("pingpong", 4, Some(3)).expect("known workload"))
    }

    #[test]
    fn corrupted_payloads_count_as_failed_ops() {
        let plan = small_pingpong();
        let out = run_rep(
            &plan,
            RepCfg {
                phase: Phase::Full,
                traced: false,
                corrupt: 4,
            },
        );
        assert_eq!(out.attempted, plan.ops() as u64);
        assert!(out.failed > 0, "corruption went unnoticed");
        assert!(out.failed <= out.attempted);
    }

    #[test]
    fn tracing_leaves_the_virtual_clock_alone() {
        let plan = small_pingpong();
        let run = |traced| {
            run_rep(
                &plan,
                RepCfg {
                    phase: Phase::Full,
                    traced,
                    corrupt: 0,
                },
            )
        };
        let (plain, traced) = (run(false), run(true));
        assert_eq!(plain.failed, 0);
        assert_eq!(plain.virt, traced.virt);
        assert_eq!(plain.virt, run(false).virt);
        assert_eq!(traced.ranks.len(), 2);
        assert!(traced.spans.iter().any(|s| s.name == "send"));
    }
}
