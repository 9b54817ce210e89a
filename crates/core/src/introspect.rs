//! MPI_T-style runtime introspection: control variables (cvars),
//! performance variables (pvars), and a deterministic progress watchdog.
//!
//! Open MPI's MCA tools interface lets operators read and tune a *running*
//! stack and pull live performance readouts without stopping it. This module
//! is that control plane for the simulated stack:
//!
//! - **cvars** ([`cvar_read`] / [`cvar_write`] / [`CVARS`]): every
//!   [`crate::StackConfig`] knob is a named, typed, runtime-readable
//!   variable; the safe subset (eager threshold, telemetry gates, watchdog
//!   tuning) is runtime-writable through the endpoint's [`Tunables`].
//! - **pvars** ([`pvar_snapshot`]): live readouts of the
//!   [`crate::metrics::Metrics`] counters and histograms plus queue depths
//!   and in-flight DMA state, snapshottable as JSON mid-run. Counter pvars
//!   read straight from `Metrics`, so a pvar can never disagree with the
//!   metrics JSON (`metrics.json` from `harness gate telemetry`).
//! - **watchdog** ([`watchdog_tick`]): driven from the progress loop on the
//!   sim clock (deterministic), it fingerprints every live request and, when
//!   one makes no state transition for a configured number of scans, records
//!   and raises a structured [`StallDiagnostic`] naming the protocol phase
//!   each stuck request is wedged in.

use std::cell::Cell;
use std::rc::Rc;

use qsim::{FastMap, Proc, Time};

use crate::config::{CompletionMode, ProgressMode, RdmaScheme, StackConfig};
use crate::endpoint::Endpoint;
use crate::state::DmaRole;

// ---------------------------------------------------------------------------
// tunables: the writable backing store behind the cvar registry
// ---------------------------------------------------------------------------

/// Runtime-writable stack knobs, initialized from [`StackConfig`] and read
/// by the hot path instead of the frozen config copy. Plain cells: a
/// simulation runs its processes one at a time on one thread.
pub struct Tunables {
    eager_limit: Cell<usize>,
    metrics: Cell<bool>,
    trace: Cell<bool>,
    flight_enable: Cell<bool>,
    watchdog_interval: Cell<u64>,
    watchdog_grace: Cell<u64>,
    retransmit_timeout_ns: Cell<u64>,
    retransmit_backoff: Cell<u64>,
    retransmit_max_retries: Cell<u64>,
    pipeline_enable: Cell<bool>,
    pipeline_chunk: Cell<usize>,
    pipeline_depth: Cell<usize>,
    pipeline_min_len: Cell<usize>,
    flow_enable: Cell<bool>,
    /// Per-peer eager credit window. Seeded from config; a configured 0
    /// (auto-scale) is resolved against the job size at endpoint init.
    flow_credits: Cell<usize>,
    flow_dma_cap: Cell<usize>,
    coll_nic_offload: Cell<bool>,
    coll_tree_radix: Cell<usize>,
    coll_hw_bcast: Cell<bool>,
    timeline_interval_ns: Cell<u64>,
    /// Virtual time of the last timeline sample; `u64::MAX` = never sampled,
    /// so the first due check fires immediately once sampling is enabled.
    timeline_last_ns: Cell<u64>,
    /// Progress ticks seen (progress passes + watchdog-timeout expiries).
    /// Lives here rather than in `Metrics` so the watchdog works with
    /// telemetry off.
    ticks: Cell<u64>,
}

impl Tunables {
    /// Seed the writable knobs from a validated config.
    pub fn from_config(cfg: &StackConfig) -> Self {
        Tunables {
            eager_limit: Cell::new(cfg.eager_limit),
            metrics: Cell::new(cfg.metrics),
            trace: Cell::new(cfg.trace),
            flight_enable: Cell::new(cfg.flight_recorder),
            watchdog_interval: Cell::new(cfg.watchdog_interval),
            watchdog_grace: Cell::new(cfg.watchdog_grace as u64),
            retransmit_timeout_ns: Cell::new(cfg.tcp_retransmit_timeout.as_ns()),
            retransmit_backoff: Cell::new(cfg.tcp_retransmit_backoff as u64),
            retransmit_max_retries: Cell::new(cfg.tcp_max_retries as u64),
            pipeline_enable: Cell::new(cfg.pipeline_enable),
            pipeline_chunk: Cell::new(cfg.pipeline_chunk),
            pipeline_depth: Cell::new(cfg.pipeline_depth),
            pipeline_min_len: Cell::new(cfg.pipeline_min_len),
            flow_enable: Cell::new(cfg.flow_enable),
            flow_credits: Cell::new(cfg.flow_credits),
            flow_dma_cap: Cell::new(cfg.flow_dma_cap),
            coll_nic_offload: Cell::new(cfg.coll_nic_offload),
            coll_tree_radix: Cell::new(cfg.coll_tree_radix),
            coll_hw_bcast: Cell::new(cfg.coll_hw_bcast),
            timeline_interval_ns: Cell::new(cfg.timeline_interval.as_ns()),
            timeline_last_ns: Cell::new(u64::MAX),
            ticks: Cell::new(0),
        }
    }

    /// Is the pipelined chunked-RDMA rendezvous enabled right now?
    pub fn pipeline_enable(&self) -> bool {
        self.pipeline_enable.get()
    }

    /// Pipeline chunk size in bytes (clamped to >= 1).
    pub fn pipeline_chunk(&self) -> usize {
        self.pipeline_chunk.get().max(1)
    }

    /// Chunks allowed in flight per rail (clamped to >= 1).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth.get().max(1)
    }

    /// Elan shares below this stay on the monolithic single-RDMA path.
    pub fn pipeline_min_len(&self) -> usize {
        self.pipeline_min_len.get()
    }

    /// Is end-to-end injection flow control enabled right now?
    pub fn flow_enable(&self) -> bool {
        self.flow_enable.get()
    }

    /// Per-peer eager credit window (resolved; never 0 once the endpoint
    /// has initialized with flow control on).
    pub fn flow_credits(&self) -> usize {
        self.flow_credits.get()
    }

    /// Resolve the auto-scaled credit window at endpoint init.
    pub(crate) fn set_flow_credits(&self, v: usize) {
        self.flow_credits.set(v);
    }

    /// Endpoint-wide outstanding-DMA descriptor cap; 0 = uncapped.
    pub fn flow_dma_cap(&self) -> usize {
        self.flow_dma_cap.get()
    }

    /// Are NIC-offloaded chained-event collectives enabled right now?
    pub fn coll_nic_offload(&self) -> bool {
        self.coll_nic_offload.get()
    }

    /// Fan-out of the NIC-offloaded collective tree (clamped to >= 2).
    pub fn coll_tree_radix(&self) -> usize {
        self.coll_tree_radix.get().max(2)
    }

    /// May eligible broadcasts use the hardware broadcast rail?
    pub fn coll_hw_bcast(&self) -> bool {
        self.coll_hw_bcast.get()
    }

    /// Virtual-time gap between timeline samples; 0 = sampler off.
    pub fn timeline_interval_ns(&self) -> u64 {
        self.timeline_interval_ns.get()
    }

    /// Is a timeline sample due at `now_ns`? Updates the last-sample stamp
    /// when it is, so each interval yields exactly one sample.
    pub fn timeline_due(&self, now_ns: u64) -> bool {
        let interval = self.timeline_interval_ns();
        if interval == 0 {
            return false;
        }
        let last = self.timeline_last_ns.get();
        if last != u64::MAX && now_ns.saturating_sub(last) < interval {
            return false;
        }
        self.timeline_last_ns.set(now_ns);
        true
    }

    /// Current eager/rendezvous threshold in bytes.
    pub fn eager_limit(&self) -> usize {
        self.eager_limit.get()
    }

    /// Is telemetry (counters + histograms) enabled right now?
    pub fn metrics(&self) -> bool {
        self.metrics.get()
    }

    /// Is protocol tracing enabled right now?
    pub fn trace(&self) -> bool {
        self.trace.get()
    }

    /// Is the post-mortem flight recorder enabled right now?
    pub fn flight_enable(&self) -> bool {
        self.flight_enable.get()
    }

    /// Progress ticks between watchdog scans; 0 = watchdog off.
    pub fn watchdog_interval(&self) -> u64 {
        self.watchdog_interval.get()
    }

    /// Consecutive stale scans before a request is declared stalled.
    pub fn watchdog_grace(&self) -> u64 {
        self.watchdog_grace.get().max(1)
    }

    /// Initial retransmit timeout for an unacknowledged control frame.
    pub fn retransmit_timeout(&self) -> qsim::Dur {
        qsim::Dur::from_ns(self.retransmit_timeout_ns.get())
    }

    /// Multiplier applied to the timeout after each retry (exponential
    /// backoff); clamped to >= 1.
    pub fn retransmit_backoff(&self) -> u32 {
        self.retransmit_backoff.get().max(1) as u32
    }

    /// Retransmissions attempted before the frame is abandoned and the peer
    /// declared failed.
    pub fn retransmit_max_retries(&self) -> u32 {
        self.retransmit_max_retries.get() as u32
    }

    /// Count one progress tick; returns the new total.
    pub fn next_tick(&self) -> u64 {
        let tick = self.ticks.get() + 1;
        self.ticks.set(tick);
        tick
    }

    /// Progress ticks counted so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.get()
    }
}

// ---------------------------------------------------------------------------
// cvar registry
// ---------------------------------------------------------------------------

/// A typed control-variable value.
#[derive(Clone, PartialEq, Debug)]
pub enum CvarValue {
    /// Boolean knob.
    Bool(bool),
    /// Numeric knob (byte counts, depths, intervals, durations in ns).
    U64(u64),
    /// Enumerated knob, rendered by name.
    Str(String),
}

impl CvarValue {
    /// JSON rendering of the value.
    pub fn to_json(&self) -> String {
        match self {
            CvarValue::Bool(b) => b.to_string(),
            CvarValue::U64(v) => v.to_string(),
            CvarValue::Str(s) => format!("\"{s}\""),
        }
    }
}

/// Static description of one control variable.
pub struct CvarDef {
    /// Dotted MPI_T-style name, e.g. `pml.eager_limit`.
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// Writable at runtime via [`cvar_write`]?
    pub writable: bool,
}

/// The cvar registry: every stack knob, with its mutability.
pub const CVARS: &[CvarDef] = &[
    CvarDef {
        name: "pml.eager_limit",
        desc: "messages at most this long (bytes) go eagerly in one QDMA",
        writable: true,
    },
    CvarDef {
        name: "pml.rdma_scheme",
        desc: "long-message scheme: write (RDMA-write+FIN) or read (RDMA-read+FIN_ACK)",
        writable: false,
    },
    CvarDef {
        name: "pml.inline_first_frag",
        desc: "carry payload inside the rendezvous packet",
        writable: false,
    },
    CvarDef {
        name: "pml.chained_fin",
        desc: "NIC fires FIN/FIN_ACK chained to the final RDMA",
        writable: false,
    },
    CvarDef {
        name: "pml.force_rendezvous",
        desc: "route every message through the rendezvous path",
        writable: false,
    },
    CvarDef {
        name: "ptl.completion_mode",
        desc: "RDMA completion strategy: poll_event, shared_combined, shared_separate",
        writable: false,
    },
    CvarDef {
        name: "ptl.progress_mode",
        desc: "progress engine: polling, interrupt, one_thread, two_threads",
        writable: false,
    },
    CvarDef {
        name: "ptl.qslots",
        desc: "receive-queue depth (QSLOTS)",
        writable: false,
    },
    CvarDef {
        name: "ptl.integrity_check",
        desc: "end-to-end Fletcher-16 payload checking",
        writable: false,
    },
    CvarDef {
        name: "telemetry.metrics",
        desc: "per-endpoint counters and histograms",
        writable: true,
    },
    CvarDef {
        name: "telemetry.trace",
        desc: "protocol event trace ring",
        writable: true,
    },
    CvarDef {
        name: "telemetry.trace_capacity",
        desc: "trace ring capacity (events)",
        writable: false,
    },
    CvarDef {
        name: "flight.enable",
        desc: "always-on post-mortem flight recorder (dumped on stall or request failure)",
        writable: true,
    },
    CvarDef {
        name: "flight.capacity",
        desc: "flight-recorder ring capacity (events)",
        writable: false,
    },
    CvarDef {
        name: "watchdog.interval",
        desc: "progress ticks between watchdog scans; 0 disables",
        writable: true,
    },
    CvarDef {
        name: "watchdog.grace",
        desc: "consecutive stale scans before a request is declared stalled",
        writable: true,
    },
    CvarDef {
        name: "watchdog.tick_ns",
        desc: "virtual-time bound on blocked waits while the watchdog is armed",
        writable: false,
    },
    CvarDef {
        name: "tcp.reliability",
        desc: "sequence-stamp TCP control frames and retransmit until acknowledged",
        writable: false,
    },
    CvarDef {
        name: "tcp.retransmit_timeout_ns",
        desc: "initial timeout before an unacknowledged control frame is resent",
        writable: true,
    },
    CvarDef {
        name: "tcp.retransmit_backoff",
        desc: "timeout multiplier applied after each retry (exponential backoff)",
        writable: true,
    },
    CvarDef {
        name: "tcp.max_retries",
        desc: "retransmissions before the frame is abandoned and the peer declared failed",
        writable: true,
    },
    CvarDef {
        name: "reg.cache",
        desc: "registration (pin-down) cache: reuse rendezvous/RMA mappings across requests",
        writable: true,
    },
    CvarDef {
        name: "reg.cache_bytes",
        desc: "byte capacity of the registration cache (evicts idle LRU mappings beyond it)",
        writable: true,
    },
    CvarDef {
        name: "reg.cache_entries",
        desc: "entry capacity of the registration cache",
        writable: true,
    },
    CvarDef {
        name: "pipe.enable",
        desc: "pipelined chunked-RDMA rendezvous (overlap registration with transfer)",
        writable: true,
    },
    CvarDef {
        name: "pipe.chunk",
        desc: "pipeline chunk size in bytes",
        writable: true,
    },
    CvarDef {
        name: "pipe.depth",
        desc: "pipeline chunks allowed in flight per rail",
        writable: true,
    },
    CvarDef {
        name: "pipe.min_len",
        desc: "Elan shares below this many bytes keep the monolithic RDMA path",
        writable: true,
    },
    CvarDef {
        name: "flow.enable",
        desc: "end-to-end injection flow control: per-peer eager credits + DMA cap",
        writable: true,
    },
    CvarDef {
        name: "flow.credits",
        desc: "per-peer eager credit window (config 0 auto-scales to the job size at init)",
        writable: true,
    },
    CvarDef {
        name: "flow.dma_cap",
        desc: "endpoint-wide outstanding RDMA descriptor cap; 0 = uncapped",
        writable: true,
    },
    CvarDef {
        name: "flow.bounce_pool",
        desc: "preallocated bounce-buffer pool slots for unexpected-message staging",
        writable: false,
    },
    CvarDef {
        name: "coll.nic_offload",
        desc: "compile barrier/bcast/allreduce into NIC-resident chained event programs",
        writable: true,
    },
    CvarDef {
        name: "coll.tree_radix",
        desc: "fan-out of the NIC-offloaded collective tree (>= 2)",
        writable: true,
    },
    CvarDef {
        name: "coll.hw_bcast",
        desc: "let eligible broadcasts use the hardware broadcast rail",
        writable: true,
    },
    CvarDef {
        name: "timeline.interval_ns",
        desc: "virtual-time gap between time-series telemetry samples; 0 disables",
        writable: true,
    },
    CvarDef {
        name: "timeline.capacity",
        desc: "timeline sample-ring capacity",
        writable: false,
    },
];

fn scheme_name(s: RdmaScheme) -> &'static str {
    match s {
        RdmaScheme::Write => "write",
        RdmaScheme::Read => "read",
    }
}

fn completion_name(c: CompletionMode) -> &'static str {
    match c {
        CompletionMode::PollEvent => "poll_event",
        CompletionMode::SharedQueueCombined => "shared_combined",
        CompletionMode::SharedQueueSeparate => "shared_separate",
    }
}

fn progress_name(p: ProgressMode) -> &'static str {
    match p {
        ProgressMode::Polling => "polling",
        ProgressMode::Interrupt => "interrupt",
        ProgressMode::OneThread => "one_thread",
        ProgressMode::TwoThreads => "two_threads",
    }
}

/// Read a control variable by name; `None` for unknown names.
pub fn cvar_read(ep: &Endpoint, name: &str) -> Option<CvarValue> {
    let v = match name {
        "pml.eager_limit" => CvarValue::U64(ep.tunables.eager_limit() as u64),
        "pml.rdma_scheme" => CvarValue::Str(scheme_name(ep.cfg.scheme).to_string()),
        "pml.inline_first_frag" => CvarValue::Bool(ep.cfg.inline_first_frag),
        "pml.chained_fin" => CvarValue::Bool(ep.cfg.chained_fin),
        "pml.force_rendezvous" => CvarValue::Bool(ep.cfg.force_rendezvous),
        "ptl.completion_mode" => CvarValue::Str(completion_name(ep.cfg.completion).to_string()),
        "ptl.progress_mode" => CvarValue::Str(progress_name(ep.cfg.progress).to_string()),
        "ptl.qslots" => CvarValue::U64(ep.cfg.qslots as u64),
        "ptl.integrity_check" => CvarValue::Bool(ep.cfg.integrity_check),
        "telemetry.metrics" => CvarValue::Bool(ep.tunables.metrics()),
        "telemetry.trace" => CvarValue::Bool(ep.tunables.trace()),
        "telemetry.trace_capacity" => CvarValue::U64(ep.cfg.trace_capacity as u64),
        "flight.enable" => CvarValue::Bool(ep.tunables.flight_enable()),
        "flight.capacity" => CvarValue::U64(ep.cfg.flight_capacity as u64),
        "watchdog.interval" => CvarValue::U64(ep.tunables.watchdog_interval()),
        "watchdog.grace" => CvarValue::U64(ep.tunables.watchdog_grace()),
        "watchdog.tick_ns" => CvarValue::U64(ep.cfg.watchdog_tick.as_ns()),
        "tcp.reliability" => CvarValue::Bool(ep.cfg.tcp_reliability),
        "tcp.retransmit_timeout_ns" => CvarValue::U64(ep.tunables.retransmit_timeout().as_ns()),
        "tcp.retransmit_backoff" => CvarValue::U64(ep.tunables.retransmit_backoff() as u64),
        "tcp.max_retries" => CvarValue::U64(ep.tunables.retransmit_max_retries() as u64),
        "reg.cache" => CvarValue::Bool(ep.reg.lock().enabled()),
        "reg.cache_bytes" => CvarValue::U64(ep.reg.lock().cap_bytes() as u64),
        "reg.cache_entries" => CvarValue::U64(ep.reg.lock().cap_entries() as u64),
        "pipe.enable" => CvarValue::Bool(ep.tunables.pipeline_enable()),
        "pipe.chunk" => CvarValue::U64(ep.tunables.pipeline_chunk() as u64),
        "pipe.depth" => CvarValue::U64(ep.tunables.pipeline_depth() as u64),
        "pipe.min_len" => CvarValue::U64(ep.tunables.pipeline_min_len() as u64),
        "flow.enable" => CvarValue::Bool(ep.tunables.flow_enable()),
        "flow.credits" => CvarValue::U64(ep.tunables.flow_credits() as u64),
        "flow.dma_cap" => CvarValue::U64(ep.tunables.flow_dma_cap() as u64),
        "flow.bounce_pool" => CvarValue::U64(ep.cfg.flow_bounce_pool as u64),
        "coll.nic_offload" => CvarValue::Bool(ep.tunables.coll_nic_offload()),
        "coll.tree_radix" => CvarValue::U64(ep.tunables.coll_tree_radix() as u64),
        "coll.hw_bcast" => CvarValue::Bool(ep.tunables.coll_hw_bcast()),
        "timeline.interval_ns" => CvarValue::U64(ep.tunables.timeline_interval_ns()),
        "timeline.capacity" => CvarValue::U64(ep.cfg.timeline_capacity as u64),
        _ => return None,
    };
    Some(v)
}

/// Write a runtime-writable control variable. Rejects unknown names,
/// read-only cvars, type mismatches, and out-of-range values.
pub fn cvar_write(ep: &Endpoint, name: &str, value: CvarValue) -> Result<(), String> {
    match (name, value) {
        ("pml.eager_limit", CvarValue::U64(v)) => {
            if v as usize > crate::hdr::MAX_INLINE {
                return Err(format!(
                    "pml.eager_limit {v} exceeds the QDMA inline maximum {}",
                    crate::hdr::MAX_INLINE
                ));
            }
            ep.tunables.eager_limit.set(v as usize);
            Ok(())
        }
        ("telemetry.metrics", CvarValue::Bool(b)) => {
            ep.tunables.metrics.set(b);
            Ok(())
        }
        ("telemetry.trace", CvarValue::Bool(b)) => {
            ep.tunables.trace.set(b);
            Ok(())
        }
        ("flight.enable", CvarValue::Bool(b)) => {
            ep.tunables.flight_enable.set(b);
            Ok(())
        }
        ("watchdog.interval", CvarValue::U64(v)) => {
            ep.tunables.watchdog_interval.set(v);
            Ok(())
        }
        ("watchdog.grace", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("watchdog.grace must be >= 1".to_string());
            }
            ep.tunables.watchdog_grace.set(v);
            Ok(())
        }
        ("tcp.retransmit_timeout_ns", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("tcp.retransmit_timeout_ns must be > 0".to_string());
            }
            ep.tunables.retransmit_timeout_ns.set(v);
            Ok(())
        }
        ("tcp.retransmit_backoff", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("tcp.retransmit_backoff must be >= 1".to_string());
            }
            ep.tunables.retransmit_backoff.set(v);
            Ok(())
        }
        ("tcp.max_retries", CvarValue::U64(v)) => {
            ep.tunables.retransmit_max_retries.set(v);
            Ok(())
        }
        ("reg.cache", CvarValue::Bool(b)) => {
            // Disabling stops new insertions; existing entries drain through
            // the normal release/eviction path.
            ep.reg.lock().set_enabled(b);
            Ok(())
        }
        ("reg.cache_bytes", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("reg.cache_bytes must be > 0".to_string());
            }
            ep.reg.lock().set_cap_bytes(v as usize);
            Ok(())
        }
        ("reg.cache_entries", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("reg.cache_entries must be > 0".to_string());
            }
            ep.reg.lock().set_cap_entries(v as usize);
            Ok(())
        }
        ("pipe.enable", CvarValue::Bool(b)) => {
            ep.tunables.pipeline_enable.set(b);
            Ok(())
        }
        ("pipe.chunk", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("pipe.chunk must be > 0".to_string());
            }
            ep.tunables.pipeline_chunk.set(v as usize);
            Ok(())
        }
        ("pipe.depth", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("pipe.depth must be >= 1".to_string());
            }
            ep.tunables.pipeline_depth.set(v as usize);
            Ok(())
        }
        ("pipe.min_len", CvarValue::U64(v)) => {
            ep.tunables.pipeline_min_len.set(v as usize);
            Ok(())
        }
        ("flow.enable", CvarValue::Bool(b)) => {
            ep.tunables.flow_enable.set(b);
            Ok(())
        }
        ("flow.credits", CvarValue::U64(v)) => {
            if v == 0 {
                return Err("flow.credits must be >= 1 (0 auto-scales at init only)".to_string());
            }
            if v as usize > ep.cfg.flow_bounce_pool {
                return Err(format!(
                    "flow.credits {v} exceeds the bounce pool ({} slots)",
                    ep.cfg.flow_bounce_pool
                ));
            }
            ep.tunables.flow_credits.set(v as usize);
            Ok(())
        }
        ("flow.dma_cap", CvarValue::U64(v)) => {
            ep.tunables.flow_dma_cap.set(v as usize);
            Ok(())
        }
        ("coll.nic_offload", CvarValue::Bool(b)) => {
            // Armed programs are keyed by communicator/shape, so flipping
            // this mid-run only steers *future* collectives; it must still
            // be set uniformly across the job before the next collective.
            ep.tunables.coll_nic_offload.set(b);
            Ok(())
        }
        ("coll.tree_radix", CvarValue::U64(v)) => {
            if v < 2 {
                return Err("coll.tree_radix must be >= 2".to_string());
            }
            ep.tunables.coll_tree_radix.set(v as usize);
            Ok(())
        }
        ("coll.hw_bcast", CvarValue::Bool(b)) => {
            ep.tunables.coll_hw_bcast.set(b);
            Ok(())
        }
        ("timeline.interval_ns", CvarValue::U64(v)) => {
            ep.tunables.timeline_interval_ns.set(v);
            Ok(())
        }
        (n, v) => {
            if let Some(def) = CVARS.iter().find(|d| d.name == n) {
                if def.writable {
                    Err(format!("cvar {n}: type mismatch (got {v:?})"))
                } else {
                    Err(format!("cvar {n} is read-only"))
                }
            } else {
                Err(format!("unknown cvar {n}"))
            }
        }
    }
}

/// All cvars of an endpoint as one JSON object
/// (`name -> {value, writable, desc}`).
pub fn cvars_json(ep: &Endpoint) -> String {
    let rows: Vec<String> = CVARS
        .iter()
        .map(|d| {
            let v = cvar_read(ep, d.name).expect("registry entry must be readable");
            format!(
                "\"{}\":{{\"value\":{},\"writable\":{},\"desc\":\"{}\"}}",
                d.name,
                v.to_json(),
                d.writable,
                d.desc
            )
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// The value a cvar takes under [`StackConfig::default`]; `None` for
/// unknown names. Lets tooling show how far a running stack has been tuned
/// away from stock without carrying a second table.
pub fn cvar_default(name: &str) -> Option<CvarValue> {
    let d = StackConfig::default();
    let v = match name {
        "pml.eager_limit" => CvarValue::U64(d.eager_limit as u64),
        "pml.rdma_scheme" => CvarValue::Str(scheme_name(d.scheme).to_string()),
        "pml.inline_first_frag" => CvarValue::Bool(d.inline_first_frag),
        "pml.chained_fin" => CvarValue::Bool(d.chained_fin),
        "pml.force_rendezvous" => CvarValue::Bool(d.force_rendezvous),
        "ptl.completion_mode" => CvarValue::Str(completion_name(d.completion).to_string()),
        "ptl.progress_mode" => CvarValue::Str(progress_name(d.progress).to_string()),
        "ptl.qslots" => CvarValue::U64(d.qslots as u64),
        "ptl.integrity_check" => CvarValue::Bool(d.integrity_check),
        "telemetry.metrics" => CvarValue::Bool(d.metrics),
        "telemetry.trace" => CvarValue::Bool(d.trace),
        "telemetry.trace_capacity" => CvarValue::U64(d.trace_capacity as u64),
        "flight.enable" => CvarValue::Bool(d.flight_recorder),
        "flight.capacity" => CvarValue::U64(d.flight_capacity as u64),
        "watchdog.interval" => CvarValue::U64(d.watchdog_interval),
        "watchdog.grace" => CvarValue::U64(d.watchdog_grace as u64),
        "watchdog.tick_ns" => CvarValue::U64(d.watchdog_tick.as_ns()),
        "tcp.reliability" => CvarValue::Bool(d.tcp_reliability),
        "tcp.retransmit_timeout_ns" => CvarValue::U64(d.tcp_retransmit_timeout.as_ns()),
        "tcp.retransmit_backoff" => CvarValue::U64(d.tcp_retransmit_backoff as u64),
        "tcp.max_retries" => CvarValue::U64(d.tcp_max_retries as u64),
        "reg.cache" => CvarValue::Bool(d.reg_cache),
        "reg.cache_bytes" => CvarValue::U64(d.reg_cache_bytes as u64),
        "reg.cache_entries" => CvarValue::U64(d.reg_cache_entries as u64),
        "pipe.enable" => CvarValue::Bool(d.pipeline_enable),
        "pipe.chunk" => CvarValue::U64(d.pipeline_chunk as u64),
        "pipe.depth" => CvarValue::U64(d.pipeline_depth as u64),
        "pipe.min_len" => CvarValue::U64(d.pipeline_min_len as u64),
        "flow.enable" => CvarValue::Bool(d.flow_enable),
        "flow.credits" => CvarValue::U64(d.flow_credits as u64),
        "flow.dma_cap" => CvarValue::U64(d.flow_dma_cap as u64),
        "flow.bounce_pool" => CvarValue::U64(d.flow_bounce_pool as u64),
        "coll.nic_offload" => CvarValue::Bool(d.coll_nic_offload),
        "coll.tree_radix" => CvarValue::U64(d.coll_tree_radix as u64),
        "coll.hw_bcast" => CvarValue::Bool(d.coll_hw_bcast),
        "timeline.interval_ns" => CvarValue::U64(d.timeline_interval.as_ns()),
        "timeline.capacity" => CvarValue::U64(d.timeline_capacity as u64),
        _ => return None,
    };
    Some(v)
}

fn cvar_type_name(v: &CvarValue) -> &'static str {
    match v {
        CvarValue::Bool(_) => "bool",
        CvarValue::U64(_) => "u64",
        CvarValue::Str(_) => "enum",
    }
}

/// The full introspection registry of one endpoint as JSON: every cvar
/// (name, type, default, writability, live value, description) and every
/// pvar (name, live value). This is the `registry.json` document of
/// `harness gate registry` — the MPI_T equivalent of `ompi_info --all`.
pub fn registry_json(ep: &Endpoint) -> String {
    let cvars: Vec<String> = CVARS
        .iter()
        .map(|d| {
            let v = cvar_read(ep, d.name).expect("registry entry must be readable");
            let default = cvar_default(d.name).expect("registry entry must have a default");
            format!(
                "{{\"name\":\"{}\",\"type\":\"{}\",\"default\":{},\"writable\":{},\
                 \"value\":{},\"desc\":\"{}\"}}",
                d.name,
                cvar_type_name(&v),
                default.to_json(),
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
/// Counter pvars read directly from the endpoint's [`crate::metrics::Metrics`]
/// (the single source of truth), queue pvars from live
/// [`crate::state::EpState`], and watchdog pvars from the introspection
/// state.
pub fn pvar_snapshot(ep: &Endpoint) -> PvarSnapshot {
    let mut vars: Vec<(String, u64)> = Vec::with_capacity(64);

    // Live protocol state (under the state lock, released before metrics).
    {
        let st = ep.state.lock();
        let send_live = st.send_reqs.values().filter(|r| !r.done).count();
        let recv_live = st.recv_reqs.values().filter(|r| !r.done).count();
        let posted: usize = st.comms.values().map(|c| c.posted.len()).sum();
        let unexpected: usize = st.comms.values().map(|c| c.unexpected.len()).sum();
        let dma_bytes: usize = st
            .pending_dmas
            .iter()
            .map(|p| match &p.role {
                DmaRole::Read { bytes, .. }
                | DmaRole::Write { bytes, .. }
                | DmaRole::Chunk { bytes, .. } => *bytes,
            })
            .sum();
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

    // Telemetry counters: read from Metrics, never a second tally.
    {
        let m = ep.metrics.lock();
        let c = &m.counters;
        for (name, v) in [
            ("pml.eager_sent", c.eager_sent),
            ("pml.rndv_sent", c.rndv_sent),
            ("pml.recvs_posted", c.recvs_posted),
            ("pml.matches", c.matches),
            ("pml.unexpected_total", c.unexpected_total),
            ("pml.unexpected_hwm", c.unexpected_hwm),
            ("pml.frags_sent", c.frags_sent),
            ("rdma.descriptors", c.rdma_descriptors),
            ("rdma.bytes", c.rdma_bytes),
            ("rdma.read_batches", c.rdma_read_batches),
            ("rdma.write_batches", c.rdma_write_batches),
            ("rdma.chained_completions", c.chained_completions),
            ("progress.iterations", c.progress_iterations),
            ("rel.retransmits", c.retransmits),
            ("rel.dup_suppressed", c.dup_suppressed),
            ("rel.gave_up", c.gave_up),
            ("rel.corrupt_frames", c.corrupt_frames),
            ("rel.ctl_acks_sent", c.ctl_acks_sent),
            ("rel.reqs_failed", c.reqs_failed),
            ("rel.errs_surfaced", c.errs_surfaced),
            ("pipe.started", c.pipe_started),
            ("pipe.fallback", c.pipe_fallback),
            ("pipe.chunks_issued", c.pipe_chunks_issued),
            ("pipe.chunks_landed", c.pipe_chunks_landed),
            ("pipe.depth_hwm", c.pipe_depth_hwm),
            ("pipe.reg_overlap_ns", c.pipe_reg_overlap_ns),
            ("flow.sends_queued", c.flow_sends_queued),
            ("flow.queued_ns", c.flow_queued_ns),
            ("flow.credits_consumed", c.flow_credits_consumed),
            ("flow.credits_returned", c.flow_credits_returned),
            ("flow.credit_frames", c.flow_credit_frames),
            ("flow.piggybacked", c.flow_piggybacked),
            ("flow.grant_deferrals", c.flow_grant_deferrals),
            ("flow.dma_waits", c.flow_dma_waits),
            ("flow.pool_hits", c.flow_pool_hits),
            ("flow.pool_fallbacks", c.flow_pool_fallbacks),
            ("coll.nic_programs", c.coll_nic_programs),
            ("coll.nic_offloaded", c.coll_nic_offloaded),
            ("coll.nic_fallbacks", c.coll_nic_fallbacks),
            ("coll.hw_bcasts", c.coll_hw_bcasts),
        ] {
            vars.push((name.to_string(), v));
        }
        for (kind, v) in crate::metrics::CONTROL_KINDS.iter().zip(c.control_sent) {
            vars.push((format!("control.{kind}"), v));
        }
        for (op, v) in crate::metrics::COLL_OPS.iter().zip(c.coll) {
            vars.push((format!("coll.ops.{}", op.name()), v));
        }
        hist_vars(&mut vars, "match_time", &m.match_time);
        hist_vars(&mut vars, "rndv_handshake", &m.rndv_handshake);
        hist_vars(&mut vars, "completion_time", &m.completion_time);
    }

    // Registration cache: authoritative stats live in the cache itself
    // (counted even with telemetry off), not the Metrics tally.
    {
        let r = ep.reg_stats();
        vars.push(("reg.hits".into(), r.hits));
        vars.push(("reg.misses".into(), r.misses));
        vars.push(("reg.evictions".into(), r.evictions));
        vars.push(("reg.mapped_bytes".into(), r.mapped_bytes));
        vars.push(("reg.entries".into(), r.entries));
    }

    // Watchdog state.
    {
        let ins = ep.introspect.lock();
        vars.push(("watchdog.ticks".into(), ep.tunables.ticks()));
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
        let tl = ep.timeline.lock();
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

/// Bounded ring of [`TimelineSample`]s, guarded by the endpoint's timeline
/// lock (a leaf lock, like the flight recorder's). When full, the oldest
/// sample is evicted and counted, keeping the most recent history.
pub struct Timeline {
    samples: std::collections::VecDeque<TimelineSample>,
    capacity: usize,
    dropped: u64,
}

impl Timeline {
    /// An empty ring holding at most `capacity` samples (min 1).
    pub fn with_capacity(capacity: usize) -> Timeline {
        Timeline {
            samples: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append one sample, evicting the oldest when full.
    pub fn push(&mut self, s: TimelineSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(s);
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been sampled (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TimelineSample> {
        self.samples.iter()
    }

    /// The retained timeline as one JSON document:
    /// `{"rank":r,"dropped":n,"samples":[...]}`.
    pub fn to_json(&self, rank: usize) -> String {
        let rows: Vec<String> = self.samples.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"rank\":{},\"dropped\":{},\"samples\":[{}]}}",
            rank,
            self.dropped,
            rows.join(",")
        )
    }
}

/// Take a timeline sample if one is due (`timeline.interval_ns` of virtual
/// time elapsed since the last). Called from every progress pass and timer
/// tick; a cheap cell read when sampling is off. Locks: state, then
/// fabric, then timeline — each taken and released in turn, none nested.
pub fn timeline_tick(proc: &Proc, ep: &Rc<Endpoint>) {
    let now = proc.now();
    if !ep.tunables.timeline_due(now.as_ns()) {
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
    ep.timeline.lock().push(TimelineSample {
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
    /// Per-request `(fingerprint, consecutive stale scans)`.
    marks: FastMap<u64, (u64, u64)>,
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
    /// Lifecycle stage that never completed, inferred from the message's
    /// causal event chain in the flight recorder.
    pub stalled_stage: String,
    /// The message's reconstructed lifecycle: every flight-recorder event
    /// carrying this gid, as a JSON array of timestamped events.
    pub lifecycle: String,
    /// Consecutive scans without a state transition.
    pub stale_scans: u64,
}

/// Infer which lifecycle stage a stalled message is wedged in from its
/// retained flight events (this rank's view of the causal chain). Byte
/// accounting beats last-event order: DMA completions may interleave with
/// later issues, so the question is whether issued bytes all landed.
fn stalled_stage(evs: &[&crate::flight::FlightEvent]) -> String {
    use crate::flight::FlightEvent as F;
    let (mut issued, mut landed) = (0usize, 0usize);
    let (mut sent, mut matched, mut rdma, mut complete) = (false, false, false, false);
    for e in evs {
        match e {
            F::Send { .. } => sent = true,
            F::Match { .. } => matched = true,
            F::Rdma { bytes, .. } => {
                rdma = true;
                issued += bytes;
            }
            F::DmaDone { bytes, .. } => landed += bytes,
            F::Complete { .. } => complete = true,
            _ => {}
        }
    }
    if complete {
        "complete: lifecycle finished on this rank (peer side stalled)".to_string()
    } else if rdma && landed < issued {
        format!(
            "wire: RDMA issued, {}/{} bytes never landed",
            landed, issued
        )
    } else if rdma {
        "fin-wait: payload landed, final control exchange never arrived".to_string()
    } else if matched {
        "handshake: matched, bulk transfer never started".to_string()
    } else if sent {
        "match-wait: posted, peer never matched or acknowledged".to_string()
    } else {
        "unattributed: no lifecycle events retained for this message".to_string()
    }
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

/// Phase a not-yet-done send is wedged in, by rendezvous scheme and
/// handshake state.
fn send_phase(scheme: RdmaScheme, rndv_acked: bool) -> String {
    let wire = match scheme {
        RdmaScheme::Write => "rdma-write+fin",
        RdmaScheme::Read => "rdma-read+fin_ack",
    };
    if rndv_acked {
        format!("{wire}: handshake done, awaiting delivery confirmation")
    } else {
        format!("{wire}: rendezvous posted, awaiting first receiver contact")
    }
}

/// Phase a not-yet-done receive is wedged in.
fn recv_phase(scheme: RdmaScheme, matched: bool, eager_limit: usize, msg_len: usize) -> String {
    if !matched {
        return "unmatched: posted, no first fragment (eager or rendezvous) arrived".to_string();
    }
    if msg_len <= eager_limit {
        return "eager: matched, inline payload incomplete".to_string();
    }
    let wire = match scheme {
        RdmaScheme::Write => "rdma-write+fin",
        RdmaScheme::Read => "rdma-read+fin_ack",
    };
    format!("{wire}: matched, awaiting remaining payload")
}

fn pack_fingerprint(done: bool, flag: bool, bytes: usize) -> u64 {
    (bytes as u64) << 2 | (flag as u64) << 1 | done as u64
}

/// One watchdog scan over every live request. Returns the diagnostic if any
/// request exceeded the grace period, after recording it in the endpoint's
/// introspect state. Locks: state, then introspect (never the reverse).
fn watchdog_scan(ep: &Endpoint, now: Time) -> Option<StallDiagnostic> {
    let grace = ep.tunables.watchdog_grace();
    let st = ep.state.lock();
    let mut ins = ep.introspect.lock();
    ins.scans += 1;

    let mut live: Vec<(u64, u64)> = Vec::new(); // (id, fingerprint)
    for r in st.send_reqs.values().filter(|r| !r.done) {
        live.push((
            r.id,
            pack_fingerprint(r.done, r.rndv_acked, r.bytes_confirmed),
        ));
    }
    for r in st.recv_reqs.values().filter(|r| !r.done) {
        live.push((
            r.id,
            pack_fingerprint(r.done, r.matched.is_some(), r.bytes_received),
        ));
    }

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

    // Build the structured dump. Reconstruct each stuck message's causal
    // chain from the flight ring (leaf lock: snapshot and release) so the
    // diagnostic names the exact stage that never completed, not just the
    // request's current protocol phase.
    let flight_events: Vec<(Time, crate::flight::FlightEvent)> =
        ep.flight.lock().events().cloned().collect();
    let lifecycle_of = |gid: u64| -> (String, String) {
        let evs: Vec<&crate::flight::FlightEvent> = flight_events
            .iter()
            .filter(|(_, e)| gid != 0 && e.gid() == Some(gid))
            .map(|(_, e)| e)
            .collect();
        let stage = stalled_stage(&evs);
        let rows: Vec<String> = flight_events
            .iter()
            .filter(|(_, e)| gid != 0 && e.gid() == Some(gid))
            .map(|(t, e)| e.to_json(*t))
            .collect();
        (stage, format!("[{}]", rows.join(",")))
    };
    let mut stuck = Vec::new();
    for (id, stale) in &stalled {
        if let Some(r) = st.send_reqs.get(id) {
            let (stage, lifecycle) = lifecycle_of(r.gid);
            stuck.push(StuckReq {
                id: *id,
                gid: r.gid,
                kind: "send",
                peer: format!("rank {}", r.dst_rank),
                tag: r.tag.to_string(),
                bytes_done: r.bytes_confirmed,
                bytes_total: r.msg_len,
                phase: send_phase(ep.cfg.scheme, r.rndv_acked),
                stalled_stage: stage,
                lifecycle,
                stale_scans: *stale,
            });
        } else if let Some(r) = st.recv_reqs.get(id) {
            let (peer, tag, total) = match &r.matched {
                Some(m) => (format!("rank {}", m.src_rank), m.tag.to_string(), m.msg_len),
                None => (
                    r.src_sel
                        .map(|s| format!("rank {s}"))
                        .unwrap_or_else(|| "any".to_string()),
                    r.tag_sel
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "any".to_string()),
                    0,
                ),
            };
            let gid = r.matched.as_ref().map(|m| m.gid).unwrap_or(0);
            let (stage, lifecycle) = lifecycle_of(gid);
            stuck.push(StuckReq {
                id: *id,
                gid,
                kind: "recv",
                peer,
                tag,
                bytes_done: r.bytes_received,
                bytes_total: total,
                phase: recv_phase(
                    ep.cfg.scheme,
                    r.matched.is_some(),
                    ep.tunables.eager_limit(),
                    r.matched.as_ref().map(|m| m.msg_len).unwrap_or(0),
                ),
                stalled_stage: stage,
                lifecycle,
                stale_scans: *stale,
            });
        }
    }
    // Snapshot the flight recorder for the post-mortem: first record the
    // stall itself, then freeze the ring's contents into the diagnostic.
    // The flight lock is a leaf lock, safe under state + introspect.
    let flight = {
        let mut f = ep.flight.lock();
        if ep.tunables.flight_enable() {
            f.record(
                now,
                crate::flight::FlightEvent::Stall {
                    stuck: stalled.len(),
                },
            );
        }
        f.events_json()
    };
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
            .map(|p| match &p.role {
                DmaRole::Read { bytes, .. } => DmaSummary {
                    token: p.token,
                    role: "read",
                    bytes: *bytes,
                },
                DmaRole::Write { bytes, .. } => DmaSummary {
                    token: p.token,
                    role: "write",
                    bytes: *bytes,
                },
                DmaRole::Chunk { bytes, is_read, .. } => DmaSummary {
                    token: p.token,
                    role: if *is_read {
                        "chunk_read"
                    } else {
                        "chunk_write"
                    },
                    bytes: *bytes,
                },
            })
            .collect(),
        flight,
    };
    ins.stalls_detected += stalled.len() as u64;
    ins.flight_dumps.push(
        ep.flight
            .lock()
            .dump_json(ep.name.rank, "watchdog stall", now),
    );
    ins.diagnostics.push(diag.clone());
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
    let t = ep.tunables.next_tick();
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
    fn phase_names_cover_schemes_and_states() {
        assert!(send_phase(RdmaScheme::Read, false).contains("rdma-read+fin_ack"));
        assert!(send_phase(RdmaScheme::Write, true).contains("rdma-write+fin"));
        assert!(recv_phase(RdmaScheme::Read, false, 1984, 0).contains("unmatched"));
        assert!(recv_phase(RdmaScheme::Read, true, 1984, 100).contains("eager"));
        assert!(recv_phase(RdmaScheme::Write, true, 1984, 10_000).contains("rdma-write+fin"));
    }

    #[test]
    fn fingerprint_distinguishes_transitions() {
        let a = pack_fingerprint(false, false, 100);
        let b = pack_fingerprint(false, true, 100);
        let c = pack_fingerprint(false, true, 200);
        let d = pack_fingerprint(true, true, 200);
        assert!(a != b && b != c && c != d);
    }

    #[test]
    fn stall_diagnostic_json_and_render_shape() {
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
                phase: send_phase(RdmaScheme::Read, true),
                stalled_stage: "wire: RDMA issued, 1984/100000 bytes never landed".to_string(),
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
        assert!(j.contains("\"stalled_stage\":\"wire: RDMA issued"));
        assert!(j.contains("\"lifecycle\":[{\"t_ns\":1,\"ev\":\"send\"}]"));
        let r = d.render();
        assert!(r.contains("rank 3 stalled"));
        assert!(r.contains("peer rank 1"));
        assert!(r.contains("phase [rdma-read+fin_ack"));
        assert!(r.contains("stalled at [wire: RDMA issued"));
    }

    #[test]
    fn stalled_stage_orders_lifecycle_inferences() {
        use crate::flight::FlightEvent as F;
        let send = F::Send {
            req: 1,
            gid: 9,
            dst: 1,
            len: 100,
            eager: false,
        };
        let mtch = F::Match {
            req: 2,
            gid: 9,
            src: 0,
            len: 100,
        };
        let rdma = F::Rdma {
            gid: 9,
            read: true,
            bytes: 100,
        };
        let done = F::DmaDone { gid: 9, bytes: 100 };
        let comp = F::Complete {
            req: 2,
            gid: 9,
            send: false,
        };
        assert!(stalled_stage(&[]).contains("unattributed"));
        assert!(stalled_stage(&[&send]).contains("match-wait"));
        assert!(stalled_stage(&[&send, &mtch]).contains("handshake"));
        assert!(stalled_stage(&[&send, &mtch, &rdma]).contains("wire"));
        assert!(stalled_stage(&[&send, &mtch, &rdma, &done]).contains("fin-wait"));
        assert!(stalled_stage(&[&send, &mtch, &rdma, &done, &comp]).contains("complete"));
    }

    #[test]
    fn timeline_ring_bounds_and_serializes() {
        let mut tl = Timeline::with_capacity(2);
        for i in 0..3u64 {
            tl.push(TimelineSample {
                t_ns: i * 1000,
                ej_queue: i,
                ..Default::default()
            });
        }
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.dropped(), 1);
        let j = tl.to_json(4);
        assert!(j.starts_with("{\"rank\":4,\"dropped\":1,\"samples\":["));
        assert!(j.contains("\"t_ns\":1000"));
        assert!(j.contains("\"t_ns\":2000"));
        assert!(!j.contains("\"t_ns\":0,"));
        assert!(j.contains("\"ej_queue\":2"));
    }

    #[test]
    fn cvar_defaults_cover_the_whole_registry() {
        for d in CVARS {
            let v = cvar_default(d.name);
            assert!(v.is_some(), "no default for cvar {}", d.name);
        }
        assert_eq!(cvar_default("no.such.cvar"), None);
        // The default table reflects StackConfig::default(), not a copy.
        let cfg = StackConfig::default();
        assert_eq!(
            cvar_default("pml.eager_limit"),
            Some(CvarValue::U64(cfg.eager_limit as u64))
        );
        assert_eq!(
            cvar_default("timeline.interval_ns"),
            Some(CvarValue::U64(cfg.timeline_interval.as_ns()))
        );
    }
}
