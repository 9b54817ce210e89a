//! MPI_T-style runtime introspection: control variables (cvars),
//! performance variables (pvars), and a deterministic progress watchdog.
//!
//! Open MPI's MCA tools interface lets operators read and tune a *running*
//! stack and pull live performance readouts without stopping it. This module
//! is that control plane for the simulated stack:
//!
//! - **cvars** ([`cvar_read`] / [`cvar_write`] / [`CVARS`]): every
//!   [`crate::StackConfig`] knob is a named, typed, runtime-readable
//!   variable, declared once in the knob table of [`crate::config`]; the
//!   safe subset (eager threshold, telemetry gates, watchdog tuning) is
//!   runtime-writable through the endpoint's [`crate::config::Tunables`].
//! - **pvars** ([`pvar_snapshot`]): live readouts of the
//!   [`crate::metrics::Metrics`] counters and histograms plus queue depths
//!   and in-flight DMA state, snapshottable as JSON mid-run. Counter pvars
//!   are the rows of the counter table in [`crate::metrics`], read from the
//!   same snapshot as the metrics JSON (`metrics.json` from `harness gate
//!   telemetry`) and under the same names, so the two cannot disagree.
//! - **watchdog** ([`watchdog_tick`]): driven from the progress loop on the
//!   sim clock (deterministic), it fingerprints every live request and, when
//!   one makes no state transition for a configured number of scans, records
//!   and raises a structured [`StallDiagnostic`] naming the protocol phase
//!   each stuck request is wedged in.

use std::rc::Rc;

use qsim::{FastMap, Proc, Ring, Time};

use crate::config::{CvarDef, CvarValue, RdmaScheme, StackConfig, CVARS};
use crate::endpoint::Endpoint;
use crate::proto::ReqKind;
use crate::state::Phase;
use crate::trace::TraceEvent;

// ---------------------------------------------------------------------------
// cvar registry: thin lookups over the knob table in `crate::config`
// ---------------------------------------------------------------------------

/// Read a control variable's live value by name; `None` for unknown names.
pub fn cvar_read(ep: &Endpoint, name: &str) -> Option<CvarValue> {
    CvarDef::find(name).map(|d| d.read(&ep.tunables))
}

/// Write a runtime-writable control variable. Rejects unknown names,
/// read-only cvars, out-of-range values, and type mismatches.
pub fn cvar_write(ep: &Endpoint, name: &str, value: CvarValue) -> Result<(), String> {
    CvarDef::find(name)
        .ok_or_else(|| format!("unknown cvar {name}"))?
        .write(&ep.tunables, &value)
}

/// The value a cvar takes under [`StackConfig::default`]; `None` for
/// unknown names. Lets tooling show how far a running stack has been tuned
/// away from stock without carrying a second table.
pub fn cvar_default(name: &str) -> Option<CvarValue> {
    CvarDef::find(name).map(|d| d.get(&StackConfig::default()))
}

/// The full introspection registry of one endpoint as JSON: every cvar
/// (name, type, default, writability, live value, description) and every
/// pvar (name, live value). This is the `registry.json` document of
/// `harness gate registry` — the MPI_T equivalent of `ompi_info --all`.
pub fn registry_json(ep: &Endpoint) -> String {
    let defaults = StackConfig::default();
    let cvars: Vec<String> = CVARS
        .iter()
        .map(|d| {
            let v = d.read(&ep.tunables);
            format!(
                "{{\"name\":\"{}\",\"type\":\"{}\",\"default\":{},\"writable\":{},\
                 \"value\":{},\"desc\":\"{}\"}}",
                d.name,
                v.type_name(),
                d.get(&defaults).to_json(),
                d.writable,
                v.to_json(),
                d.desc
            )
        })
        .collect();
    let pvars: Vec<String> = pvar_snapshot(ep)
        .vars
        .iter()
        .map(|(n, v)| format!("{{\"name\":\"{n}\",\"type\":\"u64\",\"value\":{v}}}"))
        .collect();
    format!(
        "{{\"rank\":{},\"cvars\":[{}],\"pvars\":[{}]}}",
        ep.name.rank,
        cvars.join(","),
        pvars.join(",")
    )
}

// ---------------------------------------------------------------------------
// pvar registry
// ---------------------------------------------------------------------------

/// One rank's performance variables at an instant: a flat, ordered list of
/// `(name, value)` scalars, cheap to aggregate across ranks.
#[derive(Clone, Debug)]
pub struct PvarSnapshot {
    /// The rank the snapshot came from.
    pub rank: usize,
    /// `(name, value)` rows in registry order.
    pub vars: Vec<(String, u64)>,
}

impl PvarSnapshot {
    /// Look a variable up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// JSON object rendering (`{"rank":r,"vars":{name:value,...}}`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .vars
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        format!("{{\"rank\":{},\"vars\":{{{}}}}}", self.rank, rows.join(","))
    }
}

fn hist_vars(out: &mut Vec<(String, u64)>, name: &str, h: &crate::metrics::Histogram) {
    out.push((format!("hist.{name}.count"), h.count()));
    out.push((format!("hist.{name}.sum_ns"), h.sum_ns()));
    out.push((format!("hist.{name}.max_ns"), h.max_ns().unwrap_or(0)));
    out.push((
        format!("hist.{name}.p50_ns"),
        h.quantile_ns(0.5).unwrap_or(0),
    ));
    out.push((
        format!("hist.{name}.p99_ns"),
        h.quantile_ns(0.99).unwrap_or(0),
    ));
}

/// Snapshot every pvar of `ep` without stopping the stack.
///
/// Counter pvars are the rows of [`crate::metrics::Counters::table`], read
/// from [`Endpoint::metrics_snapshot`]; queue pvars come from the live PML
/// state (`EpState`), and watchdog pvars from the introspection state.
pub fn pvar_snapshot(ep: &Endpoint) -> PvarSnapshot {
    let mut vars: Vec<(String, u64)> = Vec::with_capacity(64);

    // Live protocol state (under the state lock, released before metrics).
    {
        let st = ep.state.lock();
        let live = |send: bool| {
            st.reqs
                .values()
                .filter(|r| !r.phase.is_done() && r.is_send() == send)
                .count()
        };
        let (send_live, recv_live) = (live(true), live(false));
        let posted: usize = st.comms.values().map(|c| c.posted.len()).sum();
        let unexpected: usize = st.comms.values().map(|c| c.unexpected.len()).sum();
        let dma_bytes: usize = st.pending_dmas.iter().map(|p| p.role.bytes).sum();
        vars.push(("queues.send_reqs_live".into(), send_live as u64));
        vars.push(("queues.recv_reqs_live".into(), recv_live as u64));
        vars.push(("queues.posted_depth".into(), posted as u64));
        vars.push(("queues.unexpected_depth".into(), unexpected as u64));
        vars.push(("queues.pending_dmas".into(), st.pending_dmas.len() as u64));
        vars.push(("queues.pending_dma_bytes".into(), dma_bytes as u64));
        vars.push(("queues.comms".into(), st.comms.len() as u64));
        vars.push(("queues.ctl_inflight".into(), st.ctl_inflight.len() as u64));
        vars.push(("queues.failed_peers".into(), st.failed_peers.len() as u64));
        vars.push(("queues.pipelines_live".into(), st.pipelines.len() as u64));
        vars.push(("queues.tcp_pushes_live".into(), st.tcp_pushes.len() as u64));
        let credits_avail: usize = st.flow.values().map(|fp| fp.credits).sum();
        let pending_ret: usize = st.flow.values().map(|fp| fp.pending_return).sum();
        vars.push(("queues.flow_queued".into(), st.flow_queued_total() as u64));
        vars.push(("flow.credits_available".into(), credits_avail as u64));
        vars.push(("flow.pending_return".into(), pending_ret as u64));
        vars.push(("flow.pool_in_use".into(), st.bounce_pool.in_use() as u64));
        vars.push((
            "flow.pool_capacity".into(),
            st.bounce_pool.capacity() as u64,
        ));
    }

    // Telemetry counters, one row each from the counter table. The
    // snapshot merges in the registration cache's own `reg.*` tallies.
    {
        let m = ep.metrics_snapshot();
        vars.extend(m.counters.rows().map(|(name, v)| (name.to_string(), v)));
        hist_vars(&mut vars, "match_time", &m.match_time);
        hist_vars(&mut vars, "rndv_handshake", &m.rndv_handshake);
        hist_vars(&mut vars, "completion_time", &m.completion_time);
    }
    // The registration cache's live entry count: a level, not a counter.
    vars.push(("reg.entries".into(), ep.reg_stats().entries));

    // Watchdog state.
    {
        let ins = ep.introspect.lock();
        vars.push(("watchdog.ticks".into(), ins.ticks));
        vars.push(("watchdog.scans".into(), ins.scans));
        vars.push(("watchdog.stalls_detected".into(), ins.stalls_detected));
        vars.push(("flight.dumps".into(), ins.flight_dumps.len() as u64));
    }

    // Trace-ring and flight-recorder health: a non-zero `trace.dropped`
    // means the chrome trace is missing its oldest events.
    {
        let t = ep.trace.lock();
        vars.push(("trace.retained".into(), t.len() as u64));
        vars.push(("trace.dropped".into(), t.dropped()));
    }
    {
        let f = ep.flight.lock();
        vars.push(("flight.retained".into(), f.len() as u64));
        vars.push(("flight.dropped".into(), f.dropped()));
    }
    {
        let tl = &ep.timeline.lock().samples;
        vars.push(("timeline.retained".into(), tl.len() as u64));
        vars.push(("timeline.dropped".into(), tl.dropped()));
    }

    // Fabric link occupancy for this rank's own endpoint links (injection
    // and ejection), summed across rails. Switch-internal links are global
    // shared state and are reported by the fabric's congestion report, not
    // duplicated per rank.
    {
        let (inj, ej) = ep.cluster.fabric().node_link_totals(ep.node);
        for (stage, t) in [("inj", inj), ("ej", ej)] {
            vars.push((format!("fab.{stage}.busy_ns"), t.busy_ns));
            vars.push((format!("fab.{stage}.payload_bytes"), t.payload_bytes));
            vars.push((format!("fab.{stage}.wire_bytes"), t.wire_bytes));
            vars.push((format!("fab.{stage}.packets"), t.packets));
            vars.push((format!("fab.{stage}.retries"), t.retries));
            vars.push((format!("fab.{stage}.queue_peak"), t.queue_peak));
        }
    }

    PvarSnapshot {
        rank: ep.name.rank,
        vars,
    }
}

// ---------------------------------------------------------------------------
// time-series telemetry: the periodic pvar sampler
// ---------------------------------------------------------------------------

/// One periodic snapshot of the stack's hot gauges, taken on the simulated
/// clock by [`timeline_tick`]. A row in the timeline, not an event: queue
/// *depths* and cumulative link occupancy at an instant, so plotting
/// consecutive samples shows ramps (e.g. an incast victim's ejection queue
/// building) that endpoint-lifetime aggregates average away.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimelineSample {
    /// Virtual time of the sample (ns).
    pub t_ns: u64,
    /// Posted-receive depth summed over communicators.
    pub posted_depth: u64,
    /// Unexpected-queue depth summed over communicators.
    pub unexpected_depth: u64,
    /// DMA descriptors in flight (host has not reaped completion).
    pub pending_dmas: u64,
    /// Chunked-rendezvous pipelines live.
    pub pipelines_live: u64,
    /// Reliability-tracked control frames awaiting CTL_ACK.
    pub ctl_inflight: u64,
    /// Cumulative injection-link busy time across rails (ns).
    pub inj_busy_ns: u64,
    /// Cumulative ejection-link busy time across rails (ns).
    pub ej_busy_ns: u64,
    /// Packets queued at this node's injection links right now.
    pub inj_queue: u64,
    /// Packets queued at this node's ejection links right now.
    pub ej_queue: u64,
}

impl TimelineSample {
    /// One sample as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ns\":{},\"posted_depth\":{},\"unexpected_depth\":{},\
             \"pending_dmas\":{},\"pipelines_live\":{},\"ctl_inflight\":{},\
             \"inj_busy_ns\":{},\"ej_busy_ns\":{},\"inj_queue\":{},\"ej_queue\":{}}}",
            self.t_ns,
            self.posted_depth,
            self.unexpected_depth,
            self.pending_dmas,
            self.pipelines_live,
            self.ctl_inflight,
            self.inj_busy_ns,
            self.ej_busy_ns,
            self.inj_queue,
            self.ej_queue
        )
    }
}

/// The sampler's state, guarded by the endpoint's timeline lock (a leaf
/// lock, like the flight recorder's).
pub struct Timeline {
    /// The retained samples; when full, the oldest is evicted and counted,
    /// keeping the most recent history.
    pub samples: Ring<TimelineSample>,
    /// Virtual time of the last sample; `None` until the first, so the
    /// first due check fires as soon as sampling is enabled.
    last_ns: Option<u64>,
}

impl Timeline {
    /// An empty sampler keeping at most `capacity` samples (min 1).
    pub fn with_capacity(capacity: usize) -> Timeline {
        Timeline {
            samples: Ring::with_capacity(capacity),
            last_ns: None,
        }
    }

    /// Is a sample due at `now_ns`, `interval_ns` after the last one?
    /// Stamps the sample time when it is, so each interval yields exactly
    /// one sample.
    fn due(&mut self, now_ns: u64, interval_ns: u64) -> bool {
        if self
            .last_ns
            .is_some_and(|last| now_ns.saturating_sub(last) < interval_ns)
        {
            return false;
        }
        self.last_ns = Some(now_ns);
        true
    }

    /// The retained timeline as one JSON document:
    /// `{"rank":r,"dropped":n,"samples":[...]}`.
    pub fn to_json(&self, rank: usize) -> String {
        let rows: Vec<String> = self.samples.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"rank\":{},\"dropped\":{},\"samples\":[{}]}}",
            rank,
            self.samples.dropped(),
            rows.join(",")
        )
    }
}

/// Take a timeline sample if one is due (`timeline.interval_ns` of virtual
/// time elapsed since the last). Called from every progress pass and timer
/// tick; a cheap cell read when sampling is off. Locks: state, then
/// fabric, then timeline — each taken and released in turn, none nested.
pub fn timeline_tick(proc: &Proc, ep: &Rc<Endpoint>) {
    let interval = ep.tunables.timeline_interval();
    if interval == qsim::Dur::ZERO {
        return;
    }
    let now = proc.now();
    if !ep.timeline.lock().due(now.as_ns(), interval.as_ns()) {
        return;
    }
    let (posted, unexpected, dmas, pipes, ctl) = {
        let st = ep.state.lock();
        (
            st.comms.values().map(|c| c.posted.len()).sum::<usize>(),
            st.comms.values().map(|c| c.unexpected.len()).sum::<usize>(),
            st.pending_dmas.len(),
            st.pipelines.len(),
            st.ctl_inflight.len(),
        )
    };
    let fabric = ep.cluster.fabric();
    let (inj, ej) = fabric.node_link_totals(ep.node);
    let (inj_queue, ej_queue) = fabric.node_queue_now(ep.node, now);
    ep.timeline.lock().samples.push(TimelineSample {
        t_ns: now.as_ns(),
        posted_depth: posted as u64,
        unexpected_depth: unexpected as u64,
        pending_dmas: dmas as u64,
        pipelines_live: pipes as u64,
        ctl_inflight: ctl as u64,
        inj_busy_ns: inj.busy_ns,
        ej_busy_ns: ej.busy_ns,
        inj_queue,
        ej_queue,
    });
}

// ---------------------------------------------------------------------------
// progress watchdog
// ---------------------------------------------------------------------------

/// Watchdog bookkeeping plus recorded stall diagnostics, guarded by the
/// endpoint's introspect lock (may be taken while holding the state lock,
/// never the reverse — same rule as the metrics lock).
#[derive(Default)]
pub struct IntrospectState {
    /// Progress ticks seen (progress passes + watchdog-timeout expiries),
    /// counted while the watchdog is armed. Kept here rather than in
    /// `Metrics` so the watchdog works with telemetry off.
    pub ticks: u64,
    /// Per-request `((phase, bytes done), consecutive stale scans)`.
    marks: FastMap<u64, ((Phase, usize), u64)>,
    /// Watchdog scans performed.
    pub scans: u64,
    /// Requests ever declared stalled.
    pub stalls_detected: u64,
    /// Structured diagnostics recorded on stall detection.
    pub diagnostics: Vec<StallDiagnostic>,
    /// Flight-recorder dumps (JSON) emitted on stall or request failure.
    pub flight_dumps: Vec<String>,
}

/// One stuck request inside a [`StallDiagnostic`].
#[derive(Clone, Debug)]
pub struct StuckReq {
    /// Request id.
    pub id: u64,
    /// Global message id ([`crate::hdr::msg_gid`]); 0 when the request never
    /// progressed far enough to be attributed (e.g. an unmatched receive).
    pub gid: u64,
    /// `"send"` or `"recv"`.
    pub kind: &'static str,
    /// Peer description (destination rank for sends, source for receives).
    pub peer: String,
    /// MPI tag (selector for receives; `None` rendered as `any`).
    pub tag: String,
    /// Bytes confirmed/received so far.
    pub bytes_done: usize,
    /// Total message length (0 when unknown, i.e. unmatched receives).
    pub bytes_total: usize,
    /// Protocol phase the request is wedged in.
    pub phase: String,
    /// The stage it stalls in, starting with its `critpath` stage key.
    pub stalled_stage: String,
    /// Evidence, not input: every flight-recorder event carrying this gid,
    /// as a JSON array of timestamped events.
    pub lifecycle: String,
    /// Consecutive scans without a state transition.
    pub stale_scans: u64,
}

/// A live request's protocol phase and the stage it stalls in, both read
/// from its own state: its kind, its [`Phase`], the rendezvous `scheme`,
/// and `in_flight`, the bytes its own descriptors still have to move (its
/// pending DMAs plus what its pipeline has not issued yet). The stage
/// starts with a `critpath` stage key — `queued`, `match_wait`, `wire` or
/// `fin_wait` — so a stall and a critical-path breakdown use one
/// vocabulary. A matched receive is always a rendezvous: an eager receive
/// completes at its match.
fn diagnose(kind: ReqKind, phase: Phase, scheme: RdmaScheme, in_flight: usize) -> (String, String) {
    let wire = match scheme {
        RdmaScheme::Write => "rdma-write+fin",
        RdmaScheme::Read => "rdma-read+fin_ack",
    };
    let name = match (kind, phase) {
        (_, Phase::Parked) => "eager: parked on the peer's exhausted credit window".to_string(),
        (ReqKind::Send, Phase::Posted) => {
            format!("{wire}: rendezvous posted, awaiting first receiver contact")
        }
        (ReqKind::Recv, Phase::Posted) => {
            "unmatched: posted, no first fragment (eager or rendezvous) arrived".to_string()
        }
        (ReqKind::Send, Phase::Matched) => {
            format!("{wire}: handshake done, awaiting delivery confirmation")
        }
        (ReqKind::Recv, Phase::Matched) => format!("{wire}: matched, awaiting remaining payload"),
        (_, Phase::Done(err)) => err.map_or("done".into(), |e| format!("failed: {}", e.mpi_name())),
    };
    let stage = match phase {
        Phase::Parked => "queued: awaiting flow credits".to_string(),
        Phase::Posted => "match_wait: the peer never answered".to_string(),
        Phase::Matched if in_flight > 0 => format!("wire: {in_flight} bytes of its own in flight"),
        Phase::Matched => "fin_wait: nothing of its own in flight, awaiting the peer".to_string(),
        Phase::Done(_) => "none: finished".to_string(),
    };
    (name, stage)
}

/// A pending DMA descriptor summarized for a diagnostic.
#[derive(Clone, Debug)]
pub struct DmaSummary {
    /// Completion token.
    pub token: u64,
    /// `"read"` or `"write"`.
    pub role: &'static str,
    /// Bytes the descriptor moves.
    pub bytes: usize,
}

/// An unexpected-queue entry summarized for a diagnostic.
#[derive(Clone, Debug)]
pub struct UnexpectedSummary {
    /// Communicator context id.
    pub ctx: u32,
    /// Sender's rank in that communicator.
    pub src_rank: u32,
    /// Fragment tag.
    pub tag: i32,
    /// Total message length the fragment announces.
    pub msg_len: usize,
}

/// The structured per-rank dump emitted when the watchdog fires.
#[derive(Clone, Debug)]
pub struct StallDiagnostic {
    /// The stalled rank.
    pub rank: usize,
    /// Virtual time of detection (ns).
    pub at_ns: u64,
    /// Requests that made no state transition for the grace period.
    pub stuck: Vec<StuckReq>,
    /// Depth of the posted-receive queues.
    pub posted_depth: usize,
    /// Contents of the unexpected queues.
    pub unexpected: Vec<UnexpectedSummary>,
    /// In-flight DMA descriptors the host has not reaped.
    pub pending_dmas: Vec<DmaSummary>,
    /// Flight-recorder contents at detection time (JSON array of events).
    pub flight: String,
}

impl StallDiagnostic {
    /// JSON rendering of the full diagnostic.
    pub fn to_json(&self) -> String {
        let stuck: Vec<String> = self
            .stuck
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"gid\":{},\"kind\":\"{}\",\"peer\":\"{}\",\"tag\":\"{}\",\
                     \"bytes_done\":{},\"bytes_total\":{},\"phase\":\"{}\",\
                     \"stalled_stage\":\"{}\",\"lifecycle\":{},\
                     \"stale_scans\":{}}}",
                    s.id,
                    s.gid,
                    s.kind,
                    s.peer,
                    s.tag,
                    s.bytes_done,
                    s.bytes_total,
                    s.phase,
                    crate::trace::escape_json(&s.stalled_stage),
                    if s.lifecycle.is_empty() {
                        "[]"
                    } else {
                        &s.lifecycle
                    },
                    s.stale_scans
                )
            })
            .collect();
        let unexpected: Vec<String> = self
            .unexpected
            .iter()
            .map(|u| {
                format!(
                    "{{\"ctx\":{},\"src_rank\":{},\"tag\":{},\"msg_len\":{}}}",
                    u.ctx, u.src_rank, u.tag, u.msg_len
                )
            })
            .collect();
        let dmas: Vec<String> = self
            .pending_dmas
            .iter()
            .map(|d| {
                format!(
                    "{{\"token\":{},\"role\":\"{}\",\"bytes\":{}}}",
                    d.token, d.role, d.bytes
                )
            })
            .collect();
        format!(
            "{{\"rank\":{},\"at_ns\":{},\"stuck\":[{}],\"posted_depth\":{},\
             \"unexpected\":[{}],\"pending_dmas\":[{}],\"flight\":{}}}",
            self.rank,
            self.at_ns,
            stuck.join(","),
            self.posted_depth,
            unexpected.join(","),
            dmas.join(","),
            if self.flight.is_empty() {
                "[]"
            } else {
                &self.flight
            }
        )
    }

    /// Human-readable rendering (the watchdog's panic message).
    pub fn render(&self) -> String {
        let mut out = format!(
            "progress watchdog: rank {} stalled at t={}ns; {} stuck request(s):",
            self.rank,
            self.at_ns,
            self.stuck.len()
        );
        for s in &self.stuck {
            out.push_str(&format!(
                "\n  {} req {} (gid {:#x}) -> peer {} tag {}: {}/{} bytes, phase [{}], \
                 stalled at [{}], no transition for {} scans",
                s.kind,
                s.id,
                s.gid,
                s.peer,
                s.tag,
                s.bytes_done,
                s.bytes_total,
                s.phase,
                s.stalled_stage,
                s.stale_scans
            ));
        }
        out.push_str(&format!(
            "\n  posted receives: {}; unexpected queue: {} entries; pending DMAs: {}",
            self.posted_depth,
            self.unexpected.len(),
            self.pending_dmas.len()
        ));
        if !self.flight.is_empty() && self.flight != "[]" {
            out.push_str("\n  flight recorder dumped (see JSON diagnostic)");
        }
        out
    }
}

/// One watchdog scan over every live request. Returns the diagnostic if any
/// request exceeded the grace period, after recording it in the endpoint's
/// introspect state. Locks: state, then introspect (never the reverse).
fn watchdog_scan(ep: &Endpoint, now: Time) -> Option<StallDiagnostic> {
    let grace = u64::from(ep.tunables.watchdog_grace());
    let st = ep.state.lock();
    let mut ins = ep.introspect.lock();
    ins.scans += 1;

    // A live request's fingerprint is its phase and the bytes it has done.
    // Listed in id order, which is post order.
    let mut live: Vec<(u64, (Phase, usize))> = st
        .reqs
        .values()
        .filter(|r| !r.phase.is_done())
        .map(|r| (r.id, (r.phase, r.bytes_done)))
        .collect();
    live.sort_unstable_by_key(|&(id, _)| id);

    // Requests no longer live stop being tracked.
    let live_ids: qsim::FastSet<u64> = live.iter().map(|(id, _)| *id).collect();
    ins.marks.retain(|id, _| live_ids.contains(id));

    let mut stalled: Vec<(u64, u64)> = Vec::new(); // (id, stale scans)
    for (id, fp) in live {
        let e = ins.marks.entry(id).or_insert((fp, 0));
        if e.0 == fp {
            e.1 += 1;
            if e.1 >= grace {
                stalled.push((id, e.1));
            }
        } else {
            *e = (fp, 0);
        }
    }
    if stalled.is_empty() {
        return None;
    }

    // Build the structured dump. Each stuck request is diagnosed from its
    // own state; the flight ring (a leaf lock, safe under state +
    // introspect) only lends each message's retained events as evidence.
    let in_flight = |id: u64| -> usize {
        let dmas = st.pending_dmas.iter().filter(|p| p.role.req == id);
        let unissued = st.pipelines.get(&id).map_or(0, |ps| ps.total - ps.next_off);
        dmas.map(|p| p.role.bytes).sum::<usize>() + unissued
    };
    let flight = ep.flight.lock();
    let lifecycle =
        |gid: u64| crate::flight::events_json(flight.iter().filter(|(_, e)| e.gid() == Some(gid)));
    let mut stuck = Vec::new();
    for &(id, stale_scans) in &stalled {
        let r = &st.reqs[&id];
        // A send, or a matched receive, names its peer; an unmatched
        // receive only has its selectors.
        let (peer, tag, bytes_total) = match (&r.envelope, &r.recv) {
            (Some(env), _) => (format!("rank {}", env.rank), env.tag.to_string(), env.len),
            (None, sel) => {
                let src = sel.as_ref().and_then(|s| s.src_sel);
                let tag = sel.as_ref().and_then(|s| s.tag_sel);
                (
                    src.map_or("any".into(), |s| format!("rank {s}")),
                    tag.map_or("any".into(), |t| t.to_string()),
                    0,
                )
            }
        };
        let (phase, stalled_stage) = diagnose(r.kind(), r.phase, ep.cfg.scheme, in_flight(id));
        stuck.push(StuckReq {
            id,
            gid: r.gid,
            kind: if r.is_send() { "send" } else { "recv" },
            peer,
            tag,
            bytes_done: r.bytes_done,
            bytes_total,
            phase,
            stalled_stage,
            lifecycle: lifecycle(r.gid),
            stale_scans,
        });
    }
    drop(flight);
    // Snapshot the flight recorder for the post-mortem: first record the
    // stall itself, then freeze the ring's contents into the diagnostic.
    ep.trace(
        now,
        TraceEvent::Stall {
            stuck: stalled.len(),
        },
    );
    let flight = crate::flight::events_json(ep.flight.lock().iter());
    let diag = StallDiagnostic {
        rank: ep.name.rank,
        at_ns: now.as_ns(),
        stuck,
        posted_depth: st.comms.values().map(|c| c.posted.len()).sum(),
        unexpected: st
            .comms
            .values()
            .flat_map(|c| c.unexpected.iter())
            .map(|f| UnexpectedSummary {
                ctx: f.hdr.ctx,
                src_rank: f.hdr.src_rank,
                tag: f.hdr.tag,
                msg_len: f.hdr.msg_len as usize,
            })
            .collect(),
        pending_dmas: st
            .pending_dmas
            .iter()
            .map(|p| DmaSummary {
                token: p.token,
                role: match (p.role.chunk, p.role.is_read) {
                    (false, true) => "read",
                    (false, false) => "write",
                    (true, true) => "chunk_read",
                    (true, false) => "chunk_write",
                },
                bytes: p.role.bytes,
            })
            .collect(),
        flight,
    };
    ins.stalls_detected += stalled.len() as u64;
    ins.diagnostics.push(diag.clone());
    drop(ins);
    ep.flight_dump("watchdog stall", now);
    Some(diag)
}

/// Count one progress tick and, every `watchdog.interval` ticks, scan for
/// stalled requests. Panics with the rendered [`StallDiagnostic`] when one
/// is found — under qsim this surfaces deterministically as
/// `SimError::ProcPanic` naming the stalled rank.
///
/// No-op when the watchdog is disabled (`watchdog.interval == 0`).
pub fn watchdog_tick(proc: &Proc, ep: &Rc<Endpoint>) {
    let interval = ep.tunables.watchdog_interval();
    if interval == 0 {
        return;
    }
    let t = {
        let mut ins = ep.introspect.lock();
        ins.ticks += 1;
        ins.ticks
    };
    if !t.is_multiple_of(interval) {
        return;
    }
    // Scan (and record) under the locks, then panic outside them so the
    // teardown path never observes a poisoned endpoint.
    let diag = watchdog_scan(ep, proc.now());
    if let Some(d) = diag {
        panic!("{}", d.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnose_reads_kind_phase_scheme_and_in_flight_bytes() {
        use crate::state::MpiErrClass::ProcFailed;
        use Phase::{Done, Matched, Parked, Posted};
        use RdmaScheme::{Read, Write};
        use ReqKind::{Recv, Send};
        let rows = [
            (Send, Parked, Read, 0, "eager: parked", "queued"),
            (
                Send,
                Posted,
                Read,
                0,
                "rdma-read+fin_ack: rendezvous posted",
                "match_wait",
            ),
            (
                Send,
                Matched,
                Write,
                0,
                "rdma-write+fin: handshake done",
                "fin_wait",
            ),
            (Send, Done(None), Read, 0, "done", "none"),
            (Recv, Parked, Read, 0, "eager: parked", "queued"),
            (Recv, Posted, Read, 0, "unmatched: posted", "match_wait"),
            (
                Recv,
                Matched,
                Read,
                0,
                "rdma-read+fin_ack: matched",
                "fin_wait",
            ),
            (
                Recv,
                Done(Some(ProcFailed)),
                Write,
                0,
                "failed: MPI_ERR_PROC_FAILED",
                "none",
            ),
            // Bytes still in flight on the request's own descriptors.
            (
                Recv,
                Matched,
                Read,
                4096,
                "rdma-read+fin_ack: matched",
                "wire: 4096 bytes",
            ),
        ];
        for (kind, phase, scheme, in_flight, want_name, want_stage) in rows {
            let (name, stage) = diagnose(kind, phase, scheme, in_flight);
            let case = format!("{kind:?} {phase:?} {scheme:?} {in_flight}: {name} / {stage}");
            assert!(
                name.starts_with(want_name) && stage.starts_with(want_stage),
                "{case}"
            );
        }
    }

    #[test]
    fn stall_diagnostic_json_and_render_shape() {
        let (phase, stalled_stage) =
            diagnose(ReqKind::Send, Phase::Matched, RdmaScheme::Read, 98_016);
        let d = StallDiagnostic {
            rank: 3,
            at_ns: 12_345,
            stuck: vec![StuckReq {
                id: 7,
                gid: 0x0100_0000_0000_0007,
                kind: "send",
                peer: "rank 1".to_string(),
                tag: "42".to_string(),
                bytes_done: 1984,
                bytes_total: 100_000,
                phase,
                stalled_stage,
                lifecycle: "[{\"t_ns\":1,\"ev\":\"send\"}]".to_string(),
                stale_scans: 4,
            }],
            posted_depth: 1,
            unexpected: vec![UnexpectedSummary {
                ctx: 0,
                src_rank: 2,
                tag: 9,
                msg_len: 64,
            }],
            pending_dmas: vec![DmaSummary {
                token: 5,
                role: "read",
                bytes: 4096,
            }],
            flight: "[]".to_string(),
        };
        let j = d.to_json();
        assert!(j.contains("\"rank\":3"));
        assert!(j.contains("rdma-read+fin_ack"));
        assert!(j.contains("\"pending_dmas\":[{\"token\":5"));
        assert!(j.contains("\"gid\":72057594037927943"));
        assert!(j.contains("\"stalled_stage\":\"wire: 98016 bytes"));
        assert!(j.contains("\"lifecycle\":[{\"t_ns\":1,\"ev\":\"send\"}]"));
        let r = d.render();
        assert!(r.contains("rank 3 stalled"));
        assert!(r.contains("peer rank 1"));
        assert!(r.contains("phase [rdma-read+fin_ack"));
        assert!(r.contains("stalled at [wire: 98016 bytes"));
    }

    #[test]
    fn timeline_serializes_the_retained_tail() {
        let mut tl = Timeline::with_capacity(2);
        for i in 0..3u64 {
            tl.samples.push(TimelineSample {
                t_ns: i * 1000,
                ej_queue: i,
                ..Default::default()
            });
        }
        let j = tl.to_json(4);
        assert!(j.starts_with("{\"rank\":4,\"dropped\":1,\"samples\":["));
        assert!(j.contains("\"t_ns\":1000"));
        assert!(j.contains("\"t_ns\":2000"));
        assert!(!j.contains("\"t_ns\":0,"));
        assert!(j.contains("\"ej_queue\":2"));
    }
}
