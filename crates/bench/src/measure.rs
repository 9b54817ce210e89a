//! Measurement primitives: ping-pong latency and streaming bandwidth over
//! the Open MPI stack, the MPICH-QsNet baseline, and native QDMA — all in
//! deterministic virtual time.

use std::cell::Cell;
use std::rc::Rc;

use elan4::{Cluster, ElanCtx, HostBuf, NicConfig};
use mpich_qsnet::{run_mpich, MpichConfig};
use openmpi_core::{
    Communicator, Endpoint, Metrics, Mpi, Placement, PtlKind, PtlTraffic, StackConfig, TraceLog,
    Transports, Universe,
};
use qsim::{Dur, Local, Simulation};
use qsnet::FabricConfig;

/// Warm-up round trips before timing starts (the paper discards the first
/// 100 iterations; virtual time is deterministic, so a handful suffices to
/// reach protocol steady state).
pub const WARMUP: usize = 4;
/// Timed round trips per point.
pub const ITERS: usize = 20;

fn pattern(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| ((i * 31 + seed as usize) % 251) as u8)
        .collect()
}

/// A fully specified machine + stack for one measurement.
#[derive(Clone)]
pub struct Setup {
    pub nic: NicConfig,
    pub fabric: FabricConfig,
    pub stack: StackConfig,
    pub transports: Transports,
}

impl Setup {
    pub fn paper(stack: StackConfig) -> Setup {
        Setup {
            nic: NicConfig::default(),
            fabric: FabricConfig::default(),
            stack,
            transports: Transports::default(),
        }
    }

    fn universe(&self) -> Rc<Universe> {
        Universe::new(
            self.nic.clone(),
            self.fabric.clone(),
            self.stack.clone(),
            self.transports.clone(),
        )
    }
}

/// One ping-pong round on `w`: rank 0 sends `len` bytes to each peer in
/// turn and receives its reply; every other rank receives from rank 0, then
/// sends back.
fn pingpong_round(mpi: &Mpi, w: &Communicator, sbuf: &HostBuf, rbuf: &HostBuf, len: usize) {
    if mpi.rank() == 0 {
        for peer in 1..w.size() {
            mpi.send(w, peer, 0, sbuf, len);
            mpi.recv(w, peer as i32, 0, rbuf, len);
        }
    } else {
        mpi.recv(w, 0, 0, rbuf, len);
        mpi.send(w, 0, 0, sbuf, len);
    }
}

/// Half round-trip latency of `len`-byte messages, in µs.
pub fn ompi_latency(setup: &Setup, len: usize) -> f64 {
    let (_, lat) = setup
        .universe()
        .run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(len.max(1));
            let rbuf = mpi.alloc(len.max(1));
            mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
            for _ in 0..WARMUP {
                pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
            }
            mpi.barrier(&w);
            let t0 = mpi.now();
            for _ in 0..ITERS {
                pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
            }
            (mpi.now() - t0).as_ns() / (2 * ITERS as u64)
        });
    lat[0] as f64 / 1_000.0
}

/// Streaming bandwidth in MB/s: `window` messages of `len` bytes in flight,
/// `reps` windows, closed by a zero-byte ack.
pub fn ompi_bandwidth(setup: &Setup, len: usize, window: usize, reps: usize) -> f64 {
    let (_, bw) = setup
        .universe()
        .run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let bufs: Vec<_> = (0..window).map(|_| mpi.alloc(len.max(1))).collect();
            let ack = mpi.alloc(1);
            mpi.barrier(&w);
            let t0 = mpi.now();
            for _ in 0..reps {
                if mpi.rank() == 0 {
                    let reqs: Vec<_> = bufs.iter().map(|b| mpi.isend(&w, 1, 0, b, len)).collect();
                    mpi.waitall(reqs);
                    mpi.recv(&w, 1, 1, &ack, 0);
                } else {
                    let reqs: Vec<_> = bufs.iter().map(|b| mpi.irecv(&w, 0, 0, b, len)).collect();
                    mpi.waitall(reqs);
                    mpi.send(&w, 0, 1, &ack, 0);
                }
            }
            let ns = (mpi.now() - t0).as_ns();
            let bytes = (len * window * reps) as f64;
            bytes / (ns as f64 / 1e9) / 1e6
        });
    bw[0]
}

/// Everything captured from one instrumented run: per-rank counter and
/// histogram snapshots, per-PTL traffic, the trace rings, and the
/// simulator's own profile (events dispatched, queue occupancy).
pub struct Telemetry {
    /// Metrics snapshot of each rank, indexed by rank.
    pub per_rank: Vec<Metrics>,
    /// Per-rank, per-component frame/byte totals.
    pub traffic: Vec<Vec<PtlTraffic>>,
    /// Per-rank trace rings (rank, log).
    pub traces: Vec<(u32, TraceLog)>,
    /// The discrete-event kernel's report for the whole run.
    pub report: qsim::Report,
}

fn ptl_kind_name(kind: PtlKind) -> String {
    match kind {
        PtlKind::Elan4 { rail } => format!("elan4.{rail}"),
        PtlKind::Tcp => "tcp".to_string(),
    }
}

/// One rank's end-of-run telemetry: its metrics snapshot, per-PTL traffic
/// and trace ring.
type TelemetryRow = (Metrics, Vec<PtlTraffic>, TraceLog);

fn telemetry_row(mpi: &Mpi) -> TelemetryRow {
    let ep = mpi.endpoint();
    let metrics = ep.metrics_snapshot();
    let traffic = ep.ptls.lock().traffic();
    let trace = ep.trace.lock().clone();
    (metrics, traffic, trace)
}

impl Telemetry {
    /// Assemble the telemetry of a run from its rows, indexed by rank.
    fn new(report: qsim::Report, rows: Vec<TelemetryRow>) -> Telemetry {
        let mut t = Telemetry {
            per_rank: Vec::new(),
            traffic: Vec::new(),
            traces: Vec::new(),
            report,
        };
        for (rank, (metrics, traffic, trace)) in rows.into_iter().enumerate() {
            t.per_rank.push(metrics);
            t.traffic.push(traffic);
            t.traces.push((rank as u32, trace));
        }
        t
    }

    /// All ranks' timelines as one Chrome trace-event JSON document.
    pub fn chrome_trace(&self) -> String {
        let refs: Vec<(u32, &TraceLog)> = self.traces.iter().map(|(r, l)| (*r, l)).collect();
        openmpi_core::chrome_trace_json(&refs)
    }

    /// One JSON document: per-rank metrics, PTL traffic, trace-ring status,
    /// and the simulator report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ranks\":[");
        for (rank, m) in self.per_rank.iter().enumerate() {
            if rank > 0 {
                out.push(',');
            }
            let traffic: Vec<String> = self.traffic[rank]
                .iter()
                .map(|t| {
                    format!(
                        "{{\"ptl\":\"{}\",\"frames\":{},\"bytes\":{}}}",
                        ptl_kind_name(t.kind),
                        t.sent_frames,
                        t.sent_bytes
                    )
                })
                .collect();
            let (_, trace) = &self.traces[rank];
            out.push_str(&format!(
                "{{\"rank\":{rank},\"metrics\":{},\"ptl_traffic\":[{}],\
                 \"trace\":{{\"retained\":{},\"dropped\":{}}}}}",
                m.to_json(),
                traffic.join(","),
                trace.len(),
                trace.dropped()
            ));
        }
        out.push_str(&format!(
            "],\"sim\":{{\"end_time_ns\":{},\"events_processed\":{},\
             \"procs_spawned\":{},\"max_queue_depth\":{},\"wakes_executed\":{},\
             \"calls_executed\":{},\"stale_wakes\":{},\"sched_past\":{},\
             \"schedule_hash\":\"{:#018x}\",\"wall_ns\":{},\"events_per_sec\":{:.1}}}}}",
            self.report.end_time.as_ns(),
            self.report.events_processed,
            self.report.procs_spawned,
            self.report.max_queue_depth,
            self.report.wakes_executed,
            self.report.calls_executed,
            self.report.stale_wakes,
            self.report.sched_past,
            self.report.schedule_hash,
            self.report.wall_ns,
            self.report.events_per_sec()
        ));
        out
    }
}

/// Run a `ranks`-process ping-pong (rank 0 against each peer in turn) with
/// metrics and tracing forced on, and collect every rank's telemetry.
pub fn telemetry_pingpong(setup: &Setup, ranks: usize, len: usize, iters: usize) -> Telemetry {
    let mut setup = setup.clone();
    setup.stack.metrics = true;
    setup.stack.trace = true;
    let (report, rows) = setup
        .universe()
        .run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(len.max(1));
            let rbuf = mpi.alloc(len.max(1));
            mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
            for _ in 0..iters {
                pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
            }
            mpi.barrier(&w);
            telemetry_row(&mpi)
        });
    Telemetry::new(report, rows)
}

/// A rendezvous ping-pong over the TCP PTL with `drops` FIN_ACK control
/// frames vanishing off the wire: the reliability layer retransmits each
/// one after its timeout and the run completes. The returned telemetry
/// shows the loss being absorbed — `retransmits` equals the injected drop
/// count, `gave_up` stays zero — instead of a watchdog abort.
pub fn reliability_pingpong(setup: &Setup, len: usize, drops: u64) -> Telemetry {
    let mut setup = setup.clone();
    setup.stack.metrics = true;
    setup.stack.trace = true;
    // Control frames ride the TCP PTL (where the reliability layer lives)
    // only when it is the sole transport.
    setup.stack.inline_first_frag = true;
    setup.transports = Transports {
        elan_rails: 0,
        tcp: true,
    };
    let uni = setup.universe();
    uni.tcp_net
        .inject_drop(openmpi_core::hdr::HdrType::FinAck, drops);
    // One rendezvous round trip per injected drop, plus one clean round.
    let iters = drops as usize + 1;
    let (report, rows) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let sbuf = mpi.alloc(len.max(1));
        let rbuf = mpi.alloc(len.max(1));
        mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
        for _ in 0..iters {
            pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
        }
        mpi.barrier(&w);
        telemetry_row(&mpi)
    });
    Telemetry::new(report, rows)
}

/// One side (cache off or on) of the registration-cache comparison.
pub struct RegBenchSide {
    /// Mean half-round-trip latency in µs.
    pub latency_us: f64,
    /// Rank 0's registration-cache counters at the end of the run.
    pub stats: openmpi_core::RegStats,
}

impl RegBenchSide {
    fn to_json(&self) -> String {
        format!(
            "{{\"latency_us\":{:.3},\"reg\":{{\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"mapped_bytes\":{}}}}}",
            self.latency_us,
            self.stats.hits,
            self.stats.misses,
            self.stats.evictions,
            self.stats.mapped_bytes
        )
    }
}

/// Before/after report of the repeated-buffer rendezvous benchmark.
pub struct RegBenchReport {
    /// Message length in bytes (rendezvous-sized).
    pub len: usize,
    /// Timed round trips.
    pub iters: usize,
    /// Run with the registration cache disabled: every rendezvous pays the
    /// full map + unmap cost.
    pub off: RegBenchSide,
    /// Run with the cache enabled: the same buffers hit after the first
    /// iteration.
    pub on: RegBenchSide,
}

impl RegBenchReport {
    /// Latency ratio cache-off / cache-on (> 1 when the cache wins).
    pub fn speedup(&self) -> f64 {
        self.off.latency_us / self.on.latency_us
    }

    /// One JSON document with both sides and the speedup.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"regcache_rendezvous\",\"len\":{},\"iters\":{},\
             \"cache_off\":{},\"cache_on\":{},\"speedup\":{:.3}}}",
            self.len,
            self.iters,
            self.off.to_json(),
            self.on.to_json(),
            self.speedup()
        )
    }
}

fn reg_bench_side(setup: &Setup, len: usize, iters: usize, cache: bool) -> RegBenchSide {
    let mut setup = setup.clone();
    setup.stack.reg_cache = cache;
    let (_, mut sides) = setup
        .universe()
        .run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(len);
            let rbuf = mpi.alloc(len);
            mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
            // Deliberately no warm-up: the registration cost on a *reused*
            // buffer is exactly what this benchmark measures.
            mpi.barrier(&w);
            let t0 = mpi.now();
            for _ in 0..iters {
                pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
            }
            RegBenchSide {
                latency_us: ((mpi.now() - t0).as_ns() / (2 * iters as u64)) as f64 / 1_000.0,
                stats: mpi.endpoint().reg_stats(),
            }
        });
    sides.swap_remove(0)
}

/// The registration-cache benchmark: a rendezvous-sized ping-pong reusing
/// the same send/receive buffers every iteration, run once with the
/// pin-down cache off (every rendezvous pays [`elan4::NicConfig::map_cost`]
/// plus the unmap shootdown) and once with it on (the mappings hit after
/// the first round). The gap is the per-message registration cost the
/// cache amortizes away.
pub fn reg_cache_compare(setup: &Setup, len: usize, iters: usize) -> RegBenchReport {
    assert!(
        len > setup.stack.eager_limit,
        "registration benchmark needs rendezvous-sized messages"
    );
    RegBenchReport {
        len,
        iters,
        off: reg_bench_side(setup, len, iters, false),
        on: reg_bench_side(setup, len, iters, true),
    }
}

/// One message size on the pipelined-rendezvous bandwidth curve.
pub struct BwCurvePoint {
    /// Message length in bytes.
    pub len: usize,
    /// Open MPI with the chunked-RDMA pipeline enabled, MB/s.
    pub pipelined: f64,
    /// Open MPI forced onto the monolithic single-RDMA path, MB/s.
    pub monolithic: f64,
    /// MPICH-QsNet baseline, MB/s.
    pub mpich: f64,
}

/// Bandwidth-vs-size comparison of the pipelined and monolithic rendezvous
/// against the MPICH-QsNet baseline.
pub struct BwCurveReport {
    /// Messages in flight per burst.
    pub window: usize,
    /// Bursts per point.
    pub reps: usize,
    /// One row per message size, ascending.
    pub points: Vec<BwCurvePoint>,
}

impl BwCurveReport {
    /// Smallest measured size at which the chosen Open MPI series matches
    /// or beats the MPICH baseline; `None` if it never does.
    pub fn crossover(&self, pipelined: bool) -> Option<usize> {
        self.points
            .iter()
            .find(|p| (if pipelined { p.pipelined } else { p.monolithic }) >= p.mpich)
            .map(|p| p.len)
    }

    /// The row for a specific message size, if it was measured.
    pub fn point(&self, len: usize) -> Option<&BwCurvePoint> {
        self.points.iter().find(|p| p.len == len)
    }

    /// One JSON document: the full curve plus both crossover points.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"len\":{},\"pipelined_mbs\":{:.3},\"monolithic_mbs\":{:.3},\
                     \"mpich_mbs\":{:.3}}}",
                    p.len, p.pipelined, p.monolithic, p.mpich
                )
            })
            .collect();
        let xo = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
        format!(
            "{{\"bench\":\"bw_curve\",\"window\":{},\"reps\":{},\"points\":[{}],\
             \"crossover_pipelined\":{},\"crossover_monolithic\":{}}}",
            self.window,
            self.reps,
            rows.join(","),
            xo(self.crossover(true)),
            xo(self.crossover(false))
        )
    }
}

/// Measure the bandwidth curve: each size is run through Open MPI twice —
/// pipelined, and monolithic with `pipe.min_len` above every size — and
/// once through MPICH-QsNet.
/// Both Open MPI series run with the registration cache **off**, so every
/// message pays its full map cost; the gap between the two series is
/// exactly the registration time the pipeline hides behind the wire.
pub fn bw_curve(setup: &Setup, sizes: &[usize], window: usize, reps: usize) -> BwCurveReport {
    let mut pipe_setup = setup.clone();
    pipe_setup.stack.reg_cache = false;
    let mut mono_setup = pipe_setup.clone();
    mono_setup.stack.pipeline_min_len = usize::MAX;
    let points = sizes
        .iter()
        .map(|&len| BwCurvePoint {
            len,
            pipelined: ompi_bandwidth(&pipe_setup, len, window, reps),
            monolithic: ompi_bandwidth(&mono_setup, len, window, reps),
            mpich: mpich_bandwidth(&setup.nic, &setup.fabric, len, window, reps),
        })
        .collect();
    BwCurveReport {
        window,
        reps,
        points,
    }
}

/// Everything the introspection stack yields from one watchdog-armed run:
/// the job-wide pvar aggregation, each rank's raw snapshot, and any stall
/// diagnostics the watchdog recorded.
pub struct IntrospectReport {
    /// Min/max/sum per pvar across the job, with straggler identification.
    pub cluster: ompi_rte::ClusterReport,
    /// Each rank's raw pvar snapshot, indexed by rank.
    pub snapshots: Vec<openmpi_core::PvarSnapshot>,
    /// Total requests declared stalled across all ranks.
    pub stalls: u64,
    /// Recorded stall diagnostics, already rendered as JSON objects.
    pub diagnostics: Vec<String>,
}

impl IntrospectReport {
    /// One JSON document: stall totals, cluster aggregation, raw snapshots.
    pub fn to_json(&self) -> String {
        let ranks: Vec<String> = self.snapshots.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"stalls\":{},\"cluster\":{},\"ranks\":[{}],\"diagnostics\":[{}]}}",
            self.stalls,
            self.cluster.to_json(),
            ranks.join(","),
            self.diagnostics.join(",")
        )
    }
}

/// The instrumented ping-pong of [`telemetry_pingpong`] with the progress
/// watchdog armed and the introspection plane active: each rank snapshots
/// its pvars and publishes them through the RTE, rank 0 aggregates the
/// cluster report. Telemetry and introspection come from the *same* run, so
/// the pvar totals and the metrics JSON agree by construction.
pub fn introspect_pingpong(
    setup: &Setup,
    ranks: usize,
    len: usize,
    iters: usize,
    watchdog_interval: u64,
) -> (Telemetry, IntrospectReport) {
    let mut setup = setup.clone();
    setup.stack.metrics = true;
    setup.stack.trace = true;
    setup.stack.watchdog_interval = watchdog_interval;
    let (report, rows) = setup
        .universe()
        .run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(len.max(1));
            let rbuf = mpi.alloc(len.max(1));
            mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
            for _ in 0..iters {
                pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
            }
            mpi.barrier(&w);
            let ep = mpi.endpoint();
            let snap = openmpi_core::pvar_snapshot(ep);
            ep.rte.pvar_publish(mpi.proc(), ep.name, &snap.vars);
            let cluster = (mpi.rank() == 0).then(|| {
                let per_rank = ep.rte.pvar_collect(mpi.proc(), ep.name.job);
                ompi_rte::ClusterReport::build(&per_rank)
            });
            let (stalls, diags) = {
                let ins = ep.introspect.lock();
                (
                    ins.stalls_detected,
                    ins.diagnostics
                        .iter()
                        .map(|d| d.to_json())
                        .collect::<Vec<_>>(),
                )
            };
            (telemetry_row(&mpi), snap, stalls, diags, cluster)
        });
    let (mut telemetry_rows, mut snapshots, mut diagnostics) = (Vec::new(), Vec::new(), Vec::new());
    let (mut stalls, mut cluster) = (0, None);
    for (row, snap, st, diags, c) in rows {
        telemetry_rows.push(row);
        snapshots.push(snap);
        stalls += st;
        diagnostics.extend(diags);
        cluster = cluster.or(c);
    }
    let introspect = IntrospectReport {
        cluster: cluster.expect("rank 0 builds the cluster report"),
        snapshots,
        stalls,
        diagnostics,
    };
    (Telemetry::new(report, telemetry_rows), introspect)
}

/// Everything captured from an instrumented N-to-1 incast: the fabric's
/// own congestion report (per-link busy time, occupancy, queue depths),
/// the cluster-wide pvar aggregation, each rank's raw snapshot, and the
/// hottest rank as named by the `fab.ej.*` pvars.
pub struct CongestionCapture {
    /// The fabric's link-level congestion report at end of run.
    pub congestion: qsnet::CongestionReport,
    /// Min/max/sum per pvar across the job, with straggler identification.
    pub cluster: ompi_rte::ClusterReport,
    /// Each rank's raw pvar snapshot, indexed by rank.
    pub snapshots: Vec<openmpi_core::PvarSnapshot>,
    /// Rank whose ejection link burned the most busy time, per the
    /// `fab.ej.busy_ns` pvar (the incast victim).
    pub hot_rank: usize,
}

impl CongestionCapture {
    /// Name of the hottest link in the fabric report, e.g. `r0.ej.n0`.
    pub fn hot_link(&self) -> Option<String> {
        self.congestion.hottest().map(|l| l.name())
    }

    /// One JSON document: fabric congestion report, hot rank/link, cluster
    /// aggregation, and the raw per-rank snapshots feeding it.
    pub fn to_json(&self) -> String {
        let ranks: Vec<String> = self.snapshots.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"congestion\":{},\"hot_rank\":{},\"hot_link\":{},\
             \"cluster\":{},\"ranks\":[{}]}}",
            self.congestion.to_json(),
            self.hot_rank,
            self.hot_link()
                .map_or("null".to_string(), |l| format!("\"{l}\"")),
            self.cluster.to_json(),
            ranks.join(",")
        )
    }
}

/// Run an N-to-1 incast (every rank floods rank 0) with the introspection
/// plane active, and capture the fabric's congestion report alongside the
/// pvar view of it. This is the workload where per-link accounting earns
/// its keep: the victim's ejection link carries every sender's traffic, so
/// its busy time is ~(N-1)× any single injection link's.
pub fn incast_congestion(
    setup: &Setup,
    ranks: usize,
    len: usize,
    iters: usize,
    top_n: usize,
) -> CongestionCapture {
    let mut setup = setup.clone();
    setup.stack.metrics = true;
    let uni = setup.universe();
    let (report, rows) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
        incast(&mpi, len, iters);
        let ep = mpi.endpoint();
        let snap = openmpi_core::pvar_snapshot(ep);
        ep.rte.pvar_publish(mpi.proc(), ep.name, &snap.vars);
        let cluster = (mpi.rank() == 0).then(|| {
            let per_rank = ep.rte.pvar_collect(mpi.proc(), ep.name.job);
            ompi_rte::ClusterReport::build(&per_rank)
        });
        (snap, cluster)
    });
    let (mut snapshots, mut cluster) = (Vec::new(), None);
    for (snap, c) in rows {
        snapshots.push(snap);
        cluster = cluster.or(c);
    }
    let hot_rank = snapshots
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.get("fab.ej.busy_ns").unwrap_or(0))
        .map_or(0, |(r, _)| r);
    CongestionCapture {
        congestion: uni
            .cluster
            .fabric()
            .congestion_report(report.end_time, top_n),
        cluster: cluster.expect("rank 0 builds the cluster report"),
        snapshots,
        hot_rank,
    }
}

/// The N-to-1 incast body: every rank but 0 sends `iters` messages of
/// `len` bytes to rank 0, which receives them from any source; then all
/// ranks meet at a barrier.
fn incast(mpi: &Mpi, len: usize, iters: usize) {
    let w = mpi.world();
    if mpi.rank() == 0 {
        let rbuf = mpi.alloc(len.max(1));
        for _ in 0..iters {
            for _ in 1..w.size() {
                mpi.recv(&w, openmpi_core::ANY_SOURCE, 0, &rbuf, len);
            }
        }
    } else {
        let sbuf = mpi.alloc(len.max(1));
        mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
        for _ in 0..iters {
            mpi.send(&w, 0, 0, &sbuf, len);
        }
    }
    mpi.barrier(&w);
}

/// One flow-control scenario's observables: completion time, message rate,
/// the victim's ejection-link peak queue depth, and the flow/pool counters
/// that explain the difference between the flow-off and flow-on runs.
#[derive(Clone, Debug)]
pub struct FlowScenario {
    /// Scenario label, e.g. `incast.off`.
    pub name: String,
    /// Virtual end time of the whole run, ns.
    pub completion_ns: u64,
    /// Messages delivered (receives completed) across the job.
    pub msgs: u64,
    /// Delivered messages per virtual second.
    pub msgs_per_sec: f64,
    /// Peak queue depth on the victim's ejection link (rank 0's node).
    pub victim_ej_queue_peak: u64,
    /// Bounce-pool misses: unexpected payloads that fell back to a charged
    /// per-message allocation.
    pub pool_fallbacks: u64,
    /// Bounce-pool hits.
    pub pool_hits: u64,
    /// Sends parked on zero credits.
    pub sends_queued: u64,
    /// Explicit credit-return frames (piggybacks excluded).
    pub credit_frames: u64,
    /// Credit grants deferred because the ejection queue was backed up.
    pub grant_deferrals: u64,
    /// QDMA deposits that found the destination queue full and retried.
    pub qdma_overflows: u64,
}

impl FlowScenario {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"completion_ns\":{},\"msgs\":{},\
             \"msgs_per_sec\":{:.1},\"victim_ej_queue_peak\":{},\
             \"pool_fallbacks\":{},\"pool_hits\":{},\"sends_queued\":{},\
             \"credit_frames\":{},\"grant_deferrals\":{},\"qdma_overflows\":{}}}",
            self.name,
            self.completion_ns,
            self.msgs,
            self.msgs_per_sec,
            self.victim_ej_queue_peak,
            self.pool_fallbacks,
            self.pool_hits,
            self.sends_queued,
            self.credit_frames,
            self.grant_deferrals,
            self.qdma_overflows,
        )
    }
}

/// The traffic pattern a flow-control scenario drives.
#[derive(Copy, Clone, Debug)]
pub enum FlowWorkload {
    /// Ranks 1..N each flood `msgs` eager messages at rank 0, which sits in
    /// compute for `delay_ns` first — every message arrives unexpected and
    /// stages in the bounce pool.
    Incast { msgs: usize, delay_ns: u64 },
    /// Every rank sends `msgs` eager messages to every other rank.
    AllToAll { msgs: usize },
    /// Rank 1 floods `msgs` unexpected eager messages at a rank 0 that only
    /// starts receiving after `delay_ns` — the single-sender pool-exhaustion
    /// case.
    Flood { msgs: usize, delay_ns: u64 },
}

/// Run one flow-control scenario and capture its observables.
pub fn flow_scenario(
    setup: &Setup,
    ranks: usize,
    len: usize,
    flow_on: bool,
    workload: FlowWorkload,
) -> FlowScenario {
    let mut setup = setup.clone();
    setup.stack.metrics = true;
    setup.stack.flow_enable = flow_on;
    let (report, rows) = setup
        .universe()
        .run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let mut delivered = 0u64;
            match workload {
                FlowWorkload::Incast { msgs, delay_ns }
                | FlowWorkload::Flood { msgs, delay_ns } => {
                    let senders = match workload {
                        FlowWorkload::Flood { .. } => 1,
                        _ => ranks - 1,
                    };
                    if mpi.rank() == 0 {
                        mpi.compute(Dur::from_ns(delay_ns));
                        let rbuf = mpi.alloc(len.max(1));
                        for _ in 0..senders * msgs {
                            mpi.recv(&w, openmpi_core::ANY_SOURCE, 0, &rbuf, len);
                            delivered += 1;
                        }
                        mpi.free(rbuf);
                    } else if mpi.rank() <= senders {
                        let sbuf = mpi.alloc(len.max(1));
                        mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
                        let reqs: Vec<_> =
                            (0..msgs).map(|_| mpi.isend(&w, 0, 0, &sbuf, len)).collect();
                        mpi.waitall(reqs);
                        mpi.free(sbuf);
                    }
                }
                FlowWorkload::AllToAll { msgs } => {
                    let sbuf = mpi.alloc(len.max(1));
                    let rbuf = mpi.alloc(len.max(1));
                    mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
                    let reqs: Vec<_> = (0..ranks)
                        .filter(|&dst| dst != mpi.rank())
                        .flat_map(|dst| (0..msgs).map(move |_| (dst, 0)))
                        .map(|(dst, tag)| mpi.isend(&w, dst, tag, &sbuf, len))
                        .collect();
                    for _ in 0..(ranks - 1) * msgs {
                        mpi.recv(&w, openmpi_core::ANY_SOURCE, 0, &rbuf, len);
                        delivered += 1;
                    }
                    mpi.waitall(reqs);
                    mpi.free(sbuf);
                    mpi.free(rbuf);
                }
            }
            mpi.barrier(&w);
            let ep = mpi.endpoint();
            let (_, ej) = ep.cluster.fabric().node_link_totals(ep.node);
            let overflows = ep.cluster.stats().queue_overflows;
            (delivered, ej.queue_peak, overflows, ep.metrics_snapshot())
        });
    let sum = |f: fn(&openmpi_core::metrics::Counters) -> u64| -> u64 {
        rows.iter().map(|(.., m)| f(&m.counters)).sum()
    };
    let completion_ns = report.end_time.as_ns();
    let msgs = rows.iter().map(|(d, ..)| d).sum();
    // Rank 0 is the victim: its node's ejection link takes the flood.
    let (_, victim_ej_queue_peak, qdma_overflows, _) = rows[0];
    let name = format!(
        "{}.{}",
        match workload {
            FlowWorkload::Incast { .. } => "incast",
            FlowWorkload::AllToAll { .. } => "alltoall",
            FlowWorkload::Flood { .. } => "flood",
        },
        if flow_on { "on" } else { "off" }
    );
    FlowScenario {
        name,
        completion_ns,
        msgs,
        msgs_per_sec: if completion_ns == 0 {
            0.0
        } else {
            msgs as f64 * 1e9 / completion_ns as f64
        },
        victim_ej_queue_peak,
        pool_fallbacks: sum(|c| c.flow_pool_fallbacks),
        pool_hits: sum(|c| c.flow_pool_hits),
        sends_queued: sum(|c| c.flow_sends_queued),
        credit_frames: sum(|c| c.flow_credit_frames),
        grant_deferrals: sum(|c| c.flow_grant_deferrals),
        qdma_overflows,
    }
}

/// The full flow-control benchmark: three congestion scenarios, each run
/// with flow control off and on, plus the uncongested ping-pong that prices
/// the credit machinery's overhead.
pub struct FlowBenchReport {
    /// N-to-1 incast, `(off, on)`.
    pub incast: (FlowScenario, FlowScenario),
    /// All-to-all burst, `(off, on)`.
    pub alltoall: (FlowScenario, FlowScenario),
    /// Single-sender unexpected-message flood, `(off, on)`.
    pub flood: (FlowScenario, FlowScenario),
    /// 1 KiB half-RTT with flow control off, µs.
    pub pingpong_off_us: f64,
    /// 1 KiB half-RTT with flow control on, µs.
    pub pingpong_on_us: f64,
}

impl FlowBenchReport {
    /// Flow-on ping-pong latency as a fraction of flow-off (1.0 = free).
    pub fn pingpong_ratio(&self) -> f64 {
        if self.pingpong_off_us == 0.0 {
            1.0
        } else {
            self.pingpong_on_us / self.pingpong_off_us
        }
    }

    pub fn to_json(&self) -> String {
        let pair = |p: &(FlowScenario, FlowScenario)| {
            format!("{{\"off\":{},\"on\":{}}}", p.0.to_json(), p.1.to_json())
        };
        format!(
            "{{\"incast\":{},\"alltoall\":{},\"flood\":{},\
             \"pingpong_off_us\":{:.3},\"pingpong_on_us\":{:.3},\
             \"pingpong_ratio\":{:.4}}}",
            pair(&self.incast),
            pair(&self.alltoall),
            pair(&self.flood),
            self.pingpong_off_us,
            self.pingpong_on_us,
            self.pingpong_ratio(),
        )
    }
}

/// Run the whole flow-control benchmark on the paper testbed.
pub fn flow_bench(setup: &Setup) -> FlowBenchReport {
    let incast = FlowWorkload::Incast {
        msgs: 48,
        delay_ns: 400_000,
    };
    let alltoall = FlowWorkload::AllToAll { msgs: 12 };
    let flood = FlowWorkload::Flood {
        msgs: 256,
        delay_ns: 400_000,
    };
    let run = |flow_on: bool, wl: FlowWorkload| flow_scenario(setup, 8, 1 << 10, flow_on, wl);
    let mut off = setup.clone();
    off.stack.flow_enable = false;
    let mut on = setup.clone();
    on.stack.flow_enable = true;
    FlowBenchReport {
        incast: (run(false, incast), run(true, incast)),
        alltoall: (run(false, alltoall), run(true, alltoall)),
        flood: (run(false, flood), run(true, flood)),
        pingpong_off_us: ompi_latency(&off, 1 << 10),
        pingpong_on_us: ompi_latency(&on, 1 << 10),
    }
}

/// Everything captured from a critical-path instrumented run: the merged
/// per-message stage decomposition and the raw per-rank trace rings (for
/// the cross-rank Chrome trace).
pub struct CritPathCapture {
    /// Per-message and per-size-bucket stage breakdown.
    pub report: openmpi_core::CritPathReport,
    /// Per-rank trace rings (rank, log), feeding the merged Chrome trace.
    pub traces: Vec<(u32, TraceLog)>,
}

impl CritPathCapture {
    /// All ranks' spans merged into one Chrome trace-event JSON document,
    /// with cross-rank flow arrows linking sender and receiver spans.
    pub fn chrome_trace(&self) -> String {
        let refs: Vec<(u32, &TraceLog)> = self.traces.iter().map(|(r, l)| (*r, l)).collect();
        openmpi_core::chrome_trace_json(&refs)
    }

    /// The critical-path report as JSON.
    pub fn to_json(&self) -> String {
        self.report.to_json()
    }
}

/// Run a 2-rank ping-pong with tracing and fabric busy-interval recording
/// on, merge both ranks' trace rings by gid, and decompose each message's
/// end-to-end latency into named protocol stages. At 1 MiB with pipelining
/// this shows where the rendezvous actually spends its time: match wait,
/// handshake, wire occupancy, registration the pipeline failed to hide,
/// and the FIN exchange.
pub fn critpath_pingpong(setup: &Setup, len: usize, iters: usize) -> CritPathCapture {
    let mut setup = setup.clone();
    setup.stack.metrics = true;
    setup.stack.trace = true;
    let uni = setup.universe();
    // Record link busy windows from t=0 so the wire stages can be
    // cross-checked against what the ejection link actually serialized.
    uni.cluster.fabric().record_intervals(1 << 16);
    let (_, rows) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let sbuf = mpi.alloc(len.max(1));
        let rbuf = mpi.alloc(len.max(1));
        mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
        for _ in 0..iters {
            pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
        }
        mpi.barrier(&w);
        let ep = mpi.endpoint();
        let (_inj, ej) = ep.cluster.fabric().node_busy_intervals(ep.node);
        let trace = ep.trace.lock().clone();
        (trace, ej)
    });
    let (traces, ej_busy): (Vec<_>, Vec<_>) = (0u32..)
        .zip(rows)
        .map(|(r, (trace, ej))| ((r, trace), (r, ej)))
        .unzip();
    let refs: Vec<(u32, &TraceLog)> = traces.iter().map(|(r, l)| (*r, l)).collect();
    let report = openmpi_core::critpath::analyze(&refs, &ej_busy);
    CritPathCapture { report, traces }
}

/// Everything captured from a timeline-sampled incast: each rank's retained
/// sample ring and the victim rank (the incast target).
pub struct TimelineCapture {
    /// Per-rank `(rank, dropped, samples)` rows, ordered by rank.
    pub ranks: Vec<(u32, u64, Vec<openmpi_core::introspect::TimelineSample>)>,
    /// The incast target whose ejection queue the samples should show
    /// ramping (always rank 0 for this workload).
    pub victim: usize,
}

impl TimelineCapture {
    /// The victim rank's samples, oldest first.
    pub fn victim_samples(&self) -> &[openmpi_core::introspect::TimelineSample] {
        &self.ranks[self.victim].2
    }

    /// Peak ejection-link queue depth the victim's samples observed.
    pub fn victim_max_ej_queue(&self) -> u64 {
        self.victim_samples()
            .iter()
            .map(|s| s.ej_queue)
            .max()
            .unwrap_or(0)
    }

    /// One JSON document: the victim rank plus every rank's timeline.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .ranks
            .iter()
            .map(|(rank, dropped, samples)| {
                let s: Vec<String> = samples.iter().map(|s| s.to_json()).collect();
                format!(
                    "{{\"rank\":{},\"dropped\":{},\"samples\":[{}]}}",
                    rank,
                    dropped,
                    s.join(",")
                )
            })
            .collect();
        format!(
            "{{\"victim\":{},\"ranks\":[{}]}}",
            self.victim,
            rows.join(",")
        )
    }
}

/// Run an N-to-1 incast with the periodic timeline sampler on (interval
/// `sample_ns` of virtual time) and collect every rank's sample ring. The
/// victim's `ej_queue` series shows the congestion building as every
/// sender's traffic converges on one ejection link — the time-series view
/// of what `incast_congestion` reports as end-of-run totals.
pub fn timeline_incast(setup: &Setup, ranks: usize, len: usize, iters: usize) -> TimelineCapture {
    let mut setup = setup.clone();
    setup.stack.metrics = true;
    // Sample roughly every wire-time of one message so the ramp is visible.
    let sample_ns = (len as u64).max(1_000) / 3;
    setup.stack.timeline_interval = Dur::from_ns(sample_ns);
    let (_, ranks) = setup
        .universe()
        .run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            incast(&mpi, len, iters);
            let tl = &mpi.endpoint().timeline.lock().samples;
            (
                mpi.rank() as u32,
                tl.dropped(),
                tl.iter().cloned().collect(),
            )
        });
    TimelineCapture { ranks, victim: 0 }
}

/// Boot a 1-rank world and dump its full control/performance-variable
/// registry (name, type, default, writability, live value, description)
/// as one JSON document — the MPI_T-style discovery surface.
pub fn introspect_registry(setup: &Setup) -> String {
    let (_, mut json) = setup.universe().run_ranks(1, Placement::RoundRobin, |mpi| {
        openmpi_core::introspect::registry_json(mpi.endpoint())
    });
    json.remove(0)
}

/// What the forced-stall demonstration recovers after the watchdog abort:
/// the panic message, the structured diagnostics, and the flight-recorder
/// dumps frozen at detection time.
pub struct StallFlightDemo {
    /// The watchdog's rendered panic message.
    pub panic_msg: String,
    /// Structured stall diagnostics (JSON objects, flight ring embedded).
    pub diagnostics: Vec<String>,
    /// Flight-recorder dumps (JSON objects) recorded on the stall.
    pub flight_dumps: Vec<String>,
    /// Every stuck request the diagnostics name: its kind (`"send"` or
    /// `"recv"`) and the stage it stalls in.
    pub stuck: Vec<(&'static str, String)>,
}

impl StallFlightDemo {
    /// One JSON document bundling the post-mortem.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"demo\":\"stall_flight\",\"panic\":\"{}\",\
             \"diagnostics\":[{}],\"flight_dumps\":[{}]}}",
            openmpi_core::trace::escape_json(&self.panic_msg),
            self.diagnostics.join(","),
            self.flight_dumps.join(",")
        )
    }
}

/// Run `body` on two ranks of `uni`, catching the panic a progress
/// watchdog aborts a stalled run with: its message, which is the rendered
/// diagnostic (empty when the run finished), and each rank's endpoint in
/// rank order.
pub fn run_until_stall(
    uni: &Rc<Universe>,
    body: impl Fn(&Mpi) + 'static,
) -> (String, Vec<Rc<Endpoint>>) {
    let eps: Rc<Local<Vec<Rc<Endpoint>>>> = Rc::new(Local::new(Vec::new()));
    let e2 = eps.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        uni.run_world(2, Placement::RoundRobin, move |mpi| {
            e2.lock().push(mpi.endpoint().clone());
            body(&mpi);
        });
    }));
    let panic_msg = match result {
        Ok(_) => String::new(),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string()),
    };
    let mut eps = std::mem::take(&mut *eps.lock());
    eps.sort_by_key(|ep| ep.name.rank);
    (panic_msg, eps)
}

/// Force a rendezvous stall (drop the lone FIN_ACK with the reliability
/// layer disabled, TCP-only) and recover the post-mortem: the watchdog
/// aborts the run, and the flight recorder's ring — dumped automatically at
/// detection — shows the protocol events leading up to the wedge.
/// `flight_recorder` sets the `flight.enable` knob; off, no dump is taken.
pub fn stall_flight_demo(flight_recorder: bool) -> StallFlightDemo {
    let stack = StackConfig {
        flight_recorder,
        inline_first_frag: true,
        tcp_reliability: false,
        watchdog_interval: 8,
        watchdog_grace: 4,
        ..StackConfig::best()
    };
    let uni = Universe::new(
        NicConfig::default(),
        FabricConfig::default(),
        stack,
        Transports {
            elan_rails: 0,
            tcp: true,
        },
    );
    uni.tcp_net
        .inject_drop(openmpi_core::hdr::HdrType::FinAck, 1);
    let (panic_msg, eps) = run_until_stall(&uni, |mpi| {
        let w = mpi.world();
        let len = 64 << 10;
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 7, &buf, len);
        } else {
            mpi.recv(&w, 0, 7, &buf, len);
        }
        mpi.free(buf);
    });
    let mut diagnostics = Vec::new();
    let mut flight_dumps = Vec::new();
    let mut stuck = Vec::new();
    for ep in &eps {
        let ins = ep.introspect.lock();
        diagnostics.extend(ins.diagnostics.iter().map(|d| d.to_json()));
        flight_dumps.extend(ins.flight_dumps.iter().cloned());
        let reqs = ins.diagnostics.iter().flat_map(|d| &d.stuck);
        stuck.extend(reqs.map(|s| (s.kind, s.stalled_stage.clone())));
    }
    StallFlightDemo {
        panic_msg,
        diagnostics,
        flight_dumps,
        stuck,
    }
}

/// The simulator's own speed on a fixed reference workload.
pub struct SimBenchReport {
    /// World size of the reference workload.
    pub ranks: usize,
    /// Message length of the reference workload.
    pub len: usize,
    /// Ping-pong iterations of the reference workload.
    pub iters: usize,
    /// The kernel's report for the measured (calendar-queue, warm) run.
    pub report: qsim::Report,
    /// Schedule fingerprints agree across a repeat calendar run and the
    /// reference `BTreeMap`-queue run: same `(end_time, events_processed,
    /// schedule_hash, ...)` for the same program.
    pub determinism_ok: bool,
    /// Wall time of the reference BTree-queue run (for old-vs-new
    /// comparison in the profile JSON; cold-start noise included).
    pub btree_wall_ns: u64,
}

/// The determinism fingerprint of a run: everything in the kernel report
/// except wall-clock time.
fn schedule_fingerprint(r: &qsim::Report) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.end_time.as_ns(),
        r.events_processed,
        r.schedule_hash,
        r.wakes_executed,
        r.wakes_in_place,
        r.calls_executed,
        r.stale_wakes,
        r.sched_past,
    )
}

impl SimBenchReport {
    /// One JSON document: the kernel profile as a trackable baseline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"sim_profile\",\"ranks\":{},\"len\":{},\"iters\":{},\
             \"end_time_ns\":{},\"events_processed\":{},\"wakes_executed\":{},\
             \"wakes_in_place\":{},\"calls_executed\":{},\"stale_wakes\":{},\
             \"sched_past\":{},\"schedule_hash\":\"{:#018x}\",\"determinism_ok\":{},\
             \"procs_spawned\":{},\"max_queue_depth\":{},\
             \"wall_ns\":{},\"btree_wall_ns\":{},\"events_per_sec\":{:.1}}}",
            self.ranks,
            self.len,
            self.iters,
            self.report.end_time.as_ns(),
            self.report.events_processed,
            self.report.wakes_executed,
            self.report.wakes_in_place,
            self.report.calls_executed,
            self.report.stale_wakes,
            self.report.sched_past,
            self.report.schedule_hash,
            self.determinism_ok,
            self.report.procs_spawned,
            self.report.max_queue_depth,
            self.report.wall_ns,
            self.btree_wall_ns,
            self.report.events_per_sec()
        )
    }
}

/// Benchmark the discrete-event kernel itself: an uninstrumented reference
/// ping-pong whose event count is deterministic, timed in wall clock. The
/// events-per-second figure is the baseline CI tracks for simulator
/// regressions.
///
/// Three runs of the identical program: first on the reference
/// `BTreeMap` queue, then twice on the calendar queue. The first two double
/// as warm-up (scheduler and allocator cold-start would otherwise dominate
/// a single ~5 ms run) and as the determinism cross-check — all three must
/// produce bit-identical schedule fingerprints; the last calendar run is
/// the timed one.
pub fn sim_bench(setup: &Setup, ranks: usize, len: usize, iters: usize) -> SimBenchReport {
    let run = |kind: qsim::QueueKind| -> qsim::Report {
        qsim::set_default_queue_kind(kind);
        let report = setup
            .universe()
            .run_world(ranks, Placement::RoundRobin, move |mpi| {
                let w = mpi.world();
                let sbuf = mpi.alloc(len.max(1));
                let rbuf = mpi.alloc(len.max(1));
                mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
                for _ in 0..iters {
                    pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
                }
                mpi.barrier(&w);
            });
        qsim::set_default_queue_kind(qsim::QueueKind::Calendar);
        report
    };
    let reference = run(qsim::QueueKind::BTree);
    let repeat = run(qsim::QueueKind::Calendar);
    let report = run(qsim::QueueKind::Calendar);
    let determinism_ok = schedule_fingerprint(&report) == schedule_fingerprint(&reference)
        && schedule_fingerprint(&report) == schedule_fingerprint(&repeat);
    SimBenchReport {
        ranks,
        len,
        iters,
        report,
        determinism_ok,
        btree_wall_ns: reference.wall_ns,
    }
}

/// One point of a [`rank_sweep`].
pub struct RankSweepPoint {
    /// World size of this point.
    pub ranks: usize,
    /// Kernel report for the run.
    pub report: qsim::Report,
    /// Virtual time at which the last rank returned from MPI_Init, ns.
    pub init_ns: u64,
    /// Wall time from launch until the last rank returned from MPI_Init,
    /// in milliseconds.
    pub init_ms: f64,
    /// Wall time from there to the end of the run, in milliseconds.
    pub work_ms: f64,
}

impl RankSweepPoint {
    /// Virtual time after MPI_Init: the barrier rounds and finalize, ns.
    pub fn work_ns(&self) -> u64 {
        self.report.end_time.as_ns() - self.init_ns
    }
}

/// Wall-clock-budgeted scaling sweep: a fixed number of barrier rounds at
/// growing world sizes (one simulated process per rank — the point is that
/// the kernel makes thousand-rank collectives routine, not heroic).
pub struct RankSweepReport {
    /// Barrier rounds per point.
    pub iters: usize,
    /// The wall-clock budget the whole sweep must fit in, in milliseconds.
    pub budget_ms: u64,
    /// Total wall time actually spent, in milliseconds.
    pub total_wall_ms: f64,
    /// The per-world-size results.
    pub points: Vec<RankSweepPoint>,
}

impl RankSweepReport {
    /// Whether the sweep finished inside its wall-clock budget.
    pub fn within_budget(&self) -> bool {
        self.total_wall_ms <= self.budget_ms as f64
    }

    /// One JSON document: events/s and wall time per world size.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"ranks\":{},\"events_processed\":{},\"wakes_executed\":{},\
                     \"stale_wakes\":{},\"end_time_ns\":{},\"init_ns\":{},\
                     \"work_ns\":{},\"wall_ms\":{:.1},\"init_ms\":{:.1},\
                     \"work_ms\":{:.1},\"events_per_sec\":{:.1}}}",
                    p.ranks,
                    p.report.events_processed,
                    p.report.wakes_executed,
                    p.report.stale_wakes,
                    p.report.end_time.as_ns(),
                    p.init_ns,
                    p.work_ns(),
                    p.report.wall_ns as f64 / 1e6,
                    p.init_ms,
                    p.work_ms,
                    p.report.events_per_sec()
                )
            })
            .collect();
        format!(
            "{{\"bench\":\"rank_sweep\",\"iters\":{},\"budget_ms\":{},\
             \"total_wall_ms\":{:.1},\"within_budget\":{},\"points\":[{}]}}",
            self.iters,
            self.budget_ms,
            self.total_wall_ms,
            self.within_budget(),
            points.join(",")
        )
    }
}

/// Run `iters` barrier rounds at each world size in `rank_counts`, sizing
/// the fabric to the world (one node per rank), and check the whole sweep
/// fits in `budget_ms` of wall clock.
pub fn rank_sweep(
    setup: &Setup,
    rank_counts: &[usize],
    iters: usize,
    budget_ms: u64,
) -> RankSweepReport {
    let mut points = Vec::new();
    let mut total_wall_ns = 0u64;
    for &ranks in rank_counts {
        let mut setup = setup.clone();
        setup.fabric.nodes = ranks;
        let uni = setup.universe();
        let start = std::time::Instant::now();
        // Each rank enters its body as it returns from MPI_Init.
        let (report, entered) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let entered = (mpi.now().as_ns(), start.elapsed().as_nanos() as u64);
            let w = mpi.world();
            for _ in 0..iters {
                mpi.barrier(&w);
            }
            entered
        });
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        // The last rank to return from MPI_Init, on each clock.
        let init_ns = entered.iter().map(|e| e.0).max().unwrap_or(0);
        let init_ms = entered.iter().map(|e| e.1).max().unwrap_or(0) as f64 / 1e6;
        total_wall_ns += report.wall_ns;
        points.push(RankSweepPoint {
            ranks,
            init_ns,
            init_ms,
            work_ms: total_ms - init_ms,
            report,
        });
    }
    RankSweepReport {
        iters,
        budget_ms,
        total_wall_ms: total_wall_ns as f64 / 1e6,
        points,
    }
}

/// One measured cell of the collective-latency curve: a collective at a
/// world size, timed twice — host-driven trees vs the NIC-resident event
/// program.
pub struct CollCurvePoint {
    /// World size of this point.
    pub ranks: usize,
    /// Which collective: `"barrier"`, `"bcast"`, or `"allreduce"`.
    pub coll: &'static str,
    /// Mean per-operation completion latency on the host-driven path, µs.
    pub host_us: f64,
    /// Same workload with `coll.nic_offload` on, µs.
    pub nic_us: f64,
}

impl CollCurvePoint {
    /// Host latency over NIC latency — above 1.0 the offload pays.
    pub fn speedup(&self) -> f64 {
        if self.nic_us > 0.0 {
            self.host_us / self.nic_us
        } else {
            f64::INFINITY
        }
    }
}

/// The collective-offload scaling curve: barrier, bcast, and allreduce at
/// each world size, NIC-offloaded vs host-driven (the CI artifact
/// `BENCH_coll.json`).
pub struct CollCurveReport {
    /// Payload bytes per bcast / allreduce (barrier carries none).
    pub payload: usize,
    /// Timed operations per cell (after warm-up).
    pub iters: usize,
    /// One entry per (world size, collective) pair.
    pub points: Vec<CollCurvePoint>,
    /// Total wall time spent measuring, in milliseconds.
    pub total_wall_ms: f64,
}

impl CollCurveReport {
    /// Look up the cell for a world size and collective name.
    pub fn point(&self, ranks: usize, coll: &str) -> Option<&CollCurvePoint> {
        self.points
            .iter()
            .find(|p| p.ranks == ranks && p.coll == coll)
    }

    /// One JSON document: both series per collective per world size.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"ranks\":{},\"coll\":\"{}\",\"host_us\":{:.3},\
                     \"nic_us\":{:.3},\"speedup\":{:.3}}}",
                    p.ranks,
                    p.coll,
                    p.host_us,
                    p.nic_us,
                    p.speedup()
                )
            })
            .collect();
        format!(
            "{{\"bench\":\"coll_curve\",\"payload\":{},\"iters\":{},\
             \"total_wall_ms\":{:.1},\"points\":[{}]}}",
            self.payload,
            self.iters,
            self.total_wall_ms,
            points.join(",")
        )
    }
}

/// Time barrier, bcast, and allreduce in one world: each phase warms up
/// (which also builds and caches the NIC program, keeping the one-time
/// setup exchange out of the timed region), syncs, runs `iters`
/// operations, and closes with a barrier, so no rank's next setup traffic
/// lands on a NIC still timing the previous phase. Completion is the
/// *slowest* rank's elapsed time — for a broadcast the root returns as
/// soon as the NIC accepts the descriptors, so only a leaf sees the true
/// finish.
fn coll_curve_cell(
    setup: &Setup,
    ranks: usize,
    payload: usize,
    iters: usize,
    nic: bool,
) -> [f64; 3] {
    let mut setup = setup.clone();
    setup.fabric.nodes = ranks;
    setup.stack.coll_nic_offload = nic;
    if !nic {
        // Host baseline: binomial trees only, hardware rail off too.
        setup.stack.coll_hw_bcast = false;
    }
    let (_, per_rank) = setup
        .universe()
        .run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(payload.max(1));
            mpi.write(&buf, 0, &pattern(payload, mpi.rank() as u8));

            // Barrier.
            for _ in 0..2 {
                mpi.barrier(&w);
            }
            let t0 = mpi.now();
            for _ in 0..iters {
                mpi.barrier(&w);
            }
            let barrier_ns = (mpi.now() - t0).as_ns();
            mpi.barrier(&w);

            // Broadcast from rank 0.
            for _ in 0..2 {
                mpi.bcast(&w, 0, &buf, payload);
            }
            mpi.barrier(&w);
            let t0 = mpi.now();
            for _ in 0..iters {
                mpi.bcast(&w, 0, &buf, payload);
            }
            let bcast_ns = (mpi.now() - t0).as_ns();
            mpi.barrier(&w);

            // Allreduce (commutative sum, NIC-combinable).
            for _ in 0..2 {
                mpi.allreduce(&w, openmpi_core::ReduceOp::SumU64, &buf, payload);
            }
            mpi.barrier(&w);
            let t0 = mpi.now();
            for _ in 0..iters {
                mpi.allreduce(&w, openmpi_core::ReduceOp::SumU64, &buf, payload);
            }
            [barrier_ns, bcast_ns, (mpi.now() - t0).as_ns()]
        });
    let cell = |i: usize| {
        let max_ns = per_rank.iter().map(|ns| ns[i]).max().unwrap_or(0);
        max_ns as f64 / iters as f64 / 1_000.0
    };
    [cell(0), cell(1), cell(2)]
}

/// Sweep barrier / bcast / allreduce latency across world sizes, each
/// measured host-driven and NIC-offloaded on an identical fabric.
pub fn coll_curve(
    setup: &Setup,
    rank_counts: &[usize],
    payload: usize,
    iters: usize,
) -> CollCurveReport {
    let start = std::time::Instant::now();
    let mut points = Vec::new();
    for &ranks in rank_counts {
        let host = coll_curve_cell(setup, ranks, payload, iters, false);
        let nic = coll_curve_cell(setup, ranks, payload, iters, true);
        for (i, coll) in ["barrier", "bcast", "allreduce"].into_iter().enumerate() {
            points.push(CollCurvePoint {
                ranks,
                coll,
                host_us: host[i],
                nic_us: nic[i],
            });
        }
    }
    CollCurveReport {
        payload,
        iters,
        points,
        total_wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// MPICH-QsNet ping-pong latency in µs.
pub fn mpich_latency(nic: &NicConfig, fabric: &FabricConfig, len: usize) -> f64 {
    let cluster = Cluster::new(nic.clone(), fabric.clone());
    let lat = run_mpich(&cluster, 2, MpichConfig::default(), move |r| {
        let sbuf = r.alloc(len.max(1));
        let rbuf = r.alloc(len.max(1));
        r.write(&sbuf, 0, &pattern(len, r.rank() as u8));
        let round = || {
            if r.rank() == 0 {
                r.send(1, 0, &sbuf, len);
                r.recv(1, 0, &rbuf);
            } else {
                r.recv(0, 0, &rbuf);
                r.send(0, 0, &sbuf, len);
            }
        };
        for _ in 0..WARMUP {
            round();
        }
        r.barrier();
        let t0 = r.now();
        for _ in 0..ITERS {
            round();
        }
        (r.now() - t0).as_ns() / (2 * ITERS as u64)
    });
    lat[0] as f64 / 1_000.0
}

/// MPICH-QsNet streaming bandwidth in MB/s.
pub fn mpich_bandwidth(
    nic: &NicConfig,
    fabric: &FabricConfig,
    len: usize,
    window: usize,
    reps: usize,
) -> f64 {
    let cluster = Cluster::new(nic.clone(), fabric.clone());
    let bw = run_mpich(&cluster, 2, MpichConfig::default(), move |r| {
        let bufs: Vec<_> = (0..window).map(|_| r.alloc(len.max(1))).collect();
        let ack = r.alloc(1);
        r.barrier();
        let t0 = r.now();
        for _ in 0..reps {
            if r.rank() == 0 {
                let reqs: Vec<_> = bufs.iter().map(|b| r.isend(1, 0, b, len)).collect();
                for q in &reqs {
                    r.wait(q);
                }
                r.recv(1, 1, &ack);
            } else {
                let reqs: Vec<_> = bufs.iter().map(|b| r.irecv(0, 0, *b)).collect();
                for q in &reqs {
                    r.wait(q);
                }
                r.send(0, 1, &ack, 0);
            }
        }
        let ns = (r.now() - t0).as_ns();
        (len * window * reps) as f64 / (ns as f64 / 1e9) / 1e6
    });
    bw[0]
}

/// Native Quadrics QDMA ping-pong latency (µs) for `len`-byte messages —
/// the baseline of the paper's §6.3 layering analysis.
pub fn qdma_native_latency(nic: &NicConfig, fabric: &FabricConfig, len: usize) -> f64 {
    assert!(len <= 2048);
    let cluster = Cluster::new(nic.clone(), fabric.clone());
    let sim = Simulation::new();
    let lat = Rc::new(Cell::new(0));
    let a = Rc::new(ElanCtx::attach(&cluster, 0).unwrap());
    let b = Rc::new(ElanCtx::attach(&cluster, 1).unwrap());
    let (va, vb) = (a.vpid(), b.vpid());
    let iters = ITERS;
    {
        let lat = lat.clone();
        let a = a.clone();
        sim.spawn("qdma0", move |p| {
            let q = a.create_queue(64, 2048);
            let sig = p.signal();
            q.set_signal(sig.clone());
            // Let the peer set its queue up.
            p.advance(Dur::from_us(5));
            let t0 = p.now();
            for _ in 0..iters {
                a.qdma(&p, 0, vb, elan4::QueueId(0), vec![1u8; len.max(1)], None);
                let _ = q.wait_pop(&p, &sig, a.cluster().cfg().poll_check).unwrap();
            }
            lat.set((p.now() - t0).as_ns() / (2 * iters as u64));
        });
    }
    {
        sim.spawn("qdma1", move |p| {
            let q = b.create_queue(64, 2048);
            let sig = p.signal();
            q.set_signal(sig.clone());
            for _ in 0..iters {
                let _ = q.wait_pop(&p, &sig, b.cluster().cfg().poll_check).unwrap();
                b.qdma(&p, 0, va, elan4::QueueId(0), vec![2u8; len.max(1)], None);
            }
        });
    }
    sim.run().unwrap();
    lat.get() as f64 / 1_000.0
}

/// Latency decomposition for §6.3: `(total, pml_cost, ptl_latency)` in µs.
pub fn layer_decomposition(setup: &Setup, len: usize) -> (f64, f64, f64) {
    let (_, out) = setup
        .universe()
        .run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(len.max(1));
            let rbuf = mpi.alloc(len.max(1));
            for _ in 0..WARMUP {
                pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
            }
            mpi.barrier(&w);
            let t0 = mpi.now();
            let n = 50;
            for _ in 0..n {
                pingpong_round(&mpi, &w, &sbuf, &rbuf, len);
            }
            let total = (mpi.now() - t0).as_ns() as f64 / (2 * n) as f64 / 1_000.0;
            let pml = mpi
                .endpoint()
                .pml_layer_cost()
                .map(|d| d.as_us())
                .unwrap_or(0.0);
            (total, pml)
        });
    let (total, pml) = out[0];
    (total, pml, total - pml)
}
