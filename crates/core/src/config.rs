//! Protocol and host-cost configuration for the Open MPI stack.
//!
//! Every design choice the paper evaluates is a knob here, so each figure's
//! series is just a different [`StackConfig`]. Each knob is written once, as
//! one row of the `knobs!` table below: its field, type and default, its
//! MPI_T-style cvar name, whether a running stack may change it, its valid
//! range and a one-line description. From that row come the
//! [`StackConfig`] field and its default, the live [`Tunables`] cell the hot
//! path reads, and the [`CVARS`] entry behind
//! [`crate::introspect::cvar_read`] and [`crate::introspect::cvar_write`].
//! One range check, [`CvarDef::check`], covers both a config at init
//! ([`StackConfig::validate`]) and every runtime write.

use std::cell::Cell;

use ompi_datatype::CopyModel;
use qsim::Dur;

/// Which long-message scheme the Elan4 PTL uses (paper §4.2, Figs. 3 & 4).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RdmaScheme {
    /// Sender RDMA-writes after the ACK, then sends FIN.
    Write,
    /// Receiver RDMA-reads after the match, then sends FIN_ACK.
    Read,
}

/// How the host learns that its own RDMA descriptors completed (paper §4.3).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CompletionMode {
    /// Poll each descriptor's host event word.
    PollEvent,
    /// Chain a small QDMA to every RDMA, funneling completions into the
    /// *existing* receive queue (the one-queue strategy).
    SharedQueueCombined,
    /// Same, but into a dedicated second queue (the two-queue strategy).
    SharedQueueSeparate,
}

/// How pending communication is progressed (paper §3, dual-mode progress).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProgressMode {
    /// The application thread polls inside blocking MPI calls.
    Polling,
    /// The application thread blocks on NIC interrupts directly ("not really
    /// workable" per the paper — measured for Table 1).
    Interrupt,
    /// One asynchronous progress thread services the (combined) queue.
    OneThread,
    /// Two threads: one for incoming messages, one for the separate
    /// completion queue.
    TwoThreads,
}

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

    /// The registry's name for the value's type: `bool`, `u64` or `enum`.
    pub fn type_name(&self) -> &'static str {
        match self {
            CvarValue::Bool(_) => "bool",
            CvarValue::U64(_) => "u64",
            CvarValue::Str(_) => "enum",
        }
    }
}

/// A knob's Rust type as the cvar interface sees it.
trait Knob: Copy {
    fn to_cvar(self) -> CvarValue;
    /// `None` when `v` is of another type or does not fit this one.
    fn from_cvar(v: &CvarValue) -> Option<Self>;
}

impl Knob for bool {
    fn to_cvar(self) -> CvarValue {
        CvarValue::Bool(self)
    }
    fn from_cvar(v: &CvarValue) -> Option<Self> {
        match v {
            CvarValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Knob for u64 {
    fn to_cvar(self) -> CvarValue {
        CvarValue::U64(self)
    }
    fn from_cvar(v: &CvarValue) -> Option<Self> {
        match v {
            CvarValue::U64(x) => Some(*x),
            _ => None,
        }
    }
}

macro_rules! narrow_knob {
    ($($ty:ty),*) => {$(
        impl Knob for $ty {
            fn to_cvar(self) -> CvarValue {
                CvarValue::U64(self as u64)
            }
            fn from_cvar(v: &CvarValue) -> Option<Self> {
                u64::from_cvar(v).and_then(|x| <$ty>::try_from(x).ok())
            }
        }
    )*};
}

narrow_knob!(usize, u32);

/// Durations travel as nanoseconds.
impl Knob for Dur {
    fn to_cvar(self) -> CvarValue {
        CvarValue::U64(self.as_ns())
    }
    fn from_cvar(v: &CvarValue) -> Option<Self> {
        u64::from_cvar(v).map(Dur::from_ns)
    }
}

/// A mode enum travels by name; each variant's name is written once.
macro_rules! mode_knob {
    ($ty:ident { $($variant:ident => $name:literal),* }) => {
        impl Knob for $ty {
            fn to_cvar(self) -> CvarValue {
                let name = match self {
                    $($ty::$variant => $name,)*
                };
                CvarValue::Str(name.to_string())
            }
            fn from_cvar(v: &CvarValue) -> Option<Self> {
                match v {
                    $(CvarValue::Str(s) if s == $name => Some($ty::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

mode_knob!(RdmaScheme { Write => "write", Read => "read" });
mode_knob!(CompletionMode {
    PollEvent => "poll_event",
    SharedQueueCombined => "shared_combined",
    SharedQueueSeparate => "shared_separate"
});
mode_knob!(ProgressMode {
    Polling => "polling",
    Interrupt => "interrupt",
    OneThread => "one_thread",
    TwoThreads => "two_threads"
});

/// One row of the knob table: a control variable's registry entry.
pub struct CvarDef {
    /// Dotted MPI_T-style name, e.g. `pml.eager_limit`.
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// Writable at runtime via [`crate::introspect::cvar_write`]?
    pub writable: bool,
    /// Inclusive bounds on a numeric value; `None` when every value of the
    /// knob's type is valid.
    pub range: Option<(u64, u64)>,
    cfg_get: fn(&StackConfig) -> CvarValue,
    cfg_set: fn(&mut StackConfig, &CvarValue) -> Option<()>,
    live_get: fn(&Tunables) -> CvarValue,
    live_set: fn(&Tunables, &CvarValue) -> Option<()>,
}

impl CvarDef {
    /// The row named `name`.
    pub fn find(name: &str) -> Option<&'static CvarDef> {
        CVARS.iter().find(|d| d.name == name)
    }

    /// The knob's value in `cfg`.
    pub fn get(&self, cfg: &StackConfig) -> CvarValue {
        (self.cfg_get)(cfg)
    }

    /// Set the knob in `cfg`. Checks the type only; the range is
    /// [`StackConfig::validate`]'s to check.
    pub fn set(&self, cfg: &mut StackConfig, v: &CvarValue) -> Result<(), String> {
        (self.cfg_set)(cfg, v).ok_or_else(|| self.mismatch(v))
    }

    /// The knob's live value.
    pub fn read(&self, live: &Tunables) -> CvarValue {
        (self.live_get)(live)
    }

    /// Store `v` into the live cell: refused when the row is read-only, `v`
    /// falls outside the range, or `v` is of the wrong type.
    pub fn write(&self, live: &Tunables, v: &CvarValue) -> Result<(), String> {
        if !self.writable {
            return Err(format!("cvar {} is read-only", self.name));
        }
        self.check(v)?;
        (self.live_set)(live, v).ok_or_else(|| self.mismatch(v))
    }

    /// The one range check, applied to a config at init and to every
    /// runtime write.
    pub fn check(&self, v: &CvarValue) -> Result<(), String> {
        match (v, self.range) {
            (CvarValue::U64(x), Some((lo, hi))) if !(lo..=hi).contains(x) => Err(format!(
                "{} = {x} is out of range ({})",
                self.name,
                bounds_text(lo, hi)
            )),
            _ => Ok(()),
        }
    }

    /// The range as text (`>= 1`, `<= 1984`, `1..=64`); `None` when
    /// unbounded.
    pub fn range_text(&self) -> Option<String> {
        self.range.map(|(lo, hi)| bounds_text(lo, hi))
    }

    fn mismatch(&self, v: &CvarValue) -> String {
        format!("cvar {}: type mismatch (got {v:?})", self.name)
    }
}

fn bounds_text(lo: u64, hi: u64) -> String {
    match (lo, hi) {
        (lo, u64::MAX) => format!(">= {lo}"),
        (0, hi) => format!("<= {hi}"),
        (lo, hi) => format!("{lo}..={hi}"),
    }
}

macro_rules! knob_access {
    (rw) => {
        true
    };
    (ro) => {
        false
    };
}

macro_rules! knob_range {
    () => {
        None
    };
    ($lo:literal ..) => {
        Some(($lo, u64::MAX))
    };
    (..= $hi:expr) => {
        Some((0, $hi as u64))
    };
    ($lo:literal ..= $hi:expr) => {
        Some(($lo, $hi as u64))
    };
}

/// The knob table. A row is the field's docs, then
/// `field: Type = default;` and `"cvar.name" rw|ro [range] "description";`.
macro_rules! knobs {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $ty:ty = $default:expr;
        $name:literal $access:ident [$($range:tt)*] $desc:literal;
    )*) => {
        /// Configuration of the whole communication stack for one run: one
        /// field per knob, plus the host and copy cost models.
        #[derive(Clone, Debug)]
        pub struct StackConfig {
            $($(#[doc = $doc])* pub $field: $ty,)*
            /// Host-side layer costs.
            pub host: HostConfig,
            /// Copy-engine cost model.
            pub copy: CopyModel,
        }

        impl Default for StackConfig {
            fn default() -> Self {
                StackConfig {
                    $($field: $default,)*
                    host: HostConfig::default(),
                    copy: CopyModel::default(),
                }
            }
        }

        /// Every knob's live value, seeded from the endpoint's config and
        /// read by the hot path; [`crate::introspect::cvar_write`] changes
        /// the writable ones mid-run. Plain cells: a simulation runs its
        /// processes one at a time on one thread.
        pub struct Tunables {
            $($field: Cell<$ty>,)*
        }

        impl Tunables {
            /// Seed every cell from a validated config.
            pub(crate) fn new(cfg: &StackConfig) -> Tunables {
                Tunables {
                    $($field: Cell::new(cfg.$field),)*
                }
            }

            $(
                $(#[doc = $doc])*
                pub fn $field(&self) -> $ty {
                    self.$field.get()
                }
            )*
        }

        /// The cvar registry: every knob, in table order.
        pub const CVARS: &[CvarDef] = &[$(
            CvarDef {
                name: $name,
                desc: $desc,
                writable: knob_access!($access),
                range: knob_range!($($range)*),
                cfg_get: |c| c.$field.to_cvar(),
                cfg_set: |c, v| {
                    c.$field = <$ty as Knob>::from_cvar(v)?;
                    Some(())
                },
                live_get: |t| t.$field.get().to_cvar(),
                live_set: |t, v| {
                    t.$field.set(<$ty as Knob>::from_cvar(v)?);
                    Some(())
                },
            },
        )*];
    };
}

knobs! {
    /// Messages at most this long (packed) go eagerly in one QDMA.
    /// The 2 KB QDMA limit minus the 64-byte match header = 1984.
    eager_limit: usize = crate::hdr::MAX_INLINE;
    "pml.eager_limit" rw [..= crate::hdr::MAX_INLINE]
    "messages at most this long (bytes) go eagerly in one QDMA";

    /// Long-message scheme.
    scheme: RdmaScheme = RdmaScheme::Read;
    "pml.rdma_scheme" ro []
    "long-message scheme: write (RDMA-write+FIN) or read (RDMA-read+FIN_ACK)";

    /// Carry up to `first_frag_payload` bytes inside the rendezvous packet.
    /// Disabling this is the paper's §6.1 optimization.
    inline_first_frag: bool = false;
    "pml.inline_first_frag" ro []
    "carry payload inside the rendezvous packet";

    /// Chain the FIN / FIN_ACK QDMA to the final RDMA (vs. the host sending
    /// it after polling the completion).
    chained_fin: bool = true;
    "pml.chained_fin" ro []
    "NIC fires FIN/FIN_ACK chained to the final RDMA";

    /// Force every message through the rendezvous/RDMA path (Fig. 7 studies
    /// the RDMA path in isolation).
    force_rendezvous: bool = false;
    "pml.force_rendezvous" ro []
    "route every message through the rendezvous path";

    /// Route data through the datatype convertor instead of the memcpy fast
    /// path (the "DTP" series of Fig. 7).
    use_datatype_engine: bool = false;
    "pml.datatype_engine" ro []
    "route data through the datatype convertor instead of the memcpy fast path";

    /// Completion-notification strategy for RDMA descriptors.
    completion: CompletionMode = CompletionMode::PollEvent;
    "ptl.completion_mode" ro []
    "RDMA completion strategy: poll_event, shared_combined, shared_separate";

    /// Progress engine.
    progress: ProgressMode = ProgressMode::Polling;
    "ptl.progress_mode" ro []
    "progress engine: polling, interrupt, one_thread, two_threads";

    /// End-to-end payload integrity checking (Fletcher-16 in the header;
    /// LA-MPI heritage, paper §3). Detection is fail-stop: a corrupt
    /// payload aborts the rank. Recovery/retransmission is future work in
    /// the paper (§8) and here.
    integrity_check: bool = false;
    "ptl.integrity_check" ro []
    "end-to-end Fletcher-16 payload checking";

    /// Keep per-endpoint telemetry ([`crate::metrics::Metrics`]): protocol
    /// counters and latency histograms. Off by default so the fast path
    /// does no extra locking.
    metrics: bool = false;
    "telemetry.metrics" rw []
    "per-endpoint counters and histograms";

    /// Record every protocol transition in the endpoint's
    /// [`crate::trace::TraceLog`].
    trace: bool = false;
    "telemetry.trace" rw []
    "protocol event trace ring";

    /// Ring capacity of the trace log; when full, the oldest events are
    /// evicted and counted in [`qsim::Ring::dropped`].
    trace_capacity: usize = crate::trace::DEFAULT_TRACE_CAPACITY;
    "telemetry.trace_capacity" ro [1..]
    "trace ring capacity (events)";

    /// Post-mortem flight recorder ([`crate::flight`]): a small always-on
    /// ring of recent protocol events, dumped as JSON when the watchdog
    /// declares a stall or a request fails with an MPI error class. On by
    /// default — it is far cheaper than full tracing.
    flight_recorder: bool = true;
    "flight.enable" rw []
    "always-on post-mortem flight recorder (dumped on stall or request failure)";

    /// Progress watchdog: scan for stalled requests every this many progress
    /// ticks. `0` (the default) disables the watchdog entirely.
    watchdog_interval: u64 = 0;
    "watchdog.interval" rw []
    "progress ticks between watchdog scans; 0 disables";

    /// Consecutive watchdog scans a request must survive without any state
    /// transition before it is declared stalled.
    watchdog_grace: u32 = 4;
    "watchdog.grace" rw [1..]
    "consecutive stale scans before a request is declared stalled";

    /// Reliability layer for TCP-routed control frames (ACK/FIN/FIN_ACK):
    /// sequence-stamp them, buffer them for retransmission, and suppress
    /// duplicates on receipt. A lost control frame then costs one retransmit
    /// timeout instead of stranding the rendezvous (the watchdog stays the
    /// last-resort detector).
    tcp_reliability: bool = true;
    "tcp.reliability" ro []
    "sequence-stamp TCP control frames and retransmit until acknowledged";

    /// Initial retransmission timeout for an unacknowledged control frame.
    tcp_retransmit_timeout: Dur = Dur::from_us(500);
    "tcp.retransmit_timeout_ns" rw [1..]
    "initial timeout before an unacknowledged control frame is resent";

    /// Multiplier applied to the timeout after each retransmission
    /// (exponential backoff).
    tcp_retransmit_backoff: u32 = 2;
    "tcp.retransmit_backoff" rw [1..]
    "timeout multiplier applied after each retry (exponential backoff)";

    /// Retransmissions attempted before the frame is abandoned, the peer is
    /// marked failed, and the affected request completes with an error
    /// status.
    tcp_max_retries: u32 = 4;
    "tcp.max_retries" rw []
    "retransmissions before the frame is abandoned and the peer declared failed";

    /// Registration (pin-down) cache: keep rendezvous/RMA MMU mappings
    /// alive after their request completes and reuse them for repeated
    /// buffers, deferring the charged unmap to LRU eviction
    /// ([`crate::regcache`]). Turning it off at runtime stops new
    /// insertions; existing entries drain through the normal
    /// release/eviction path.
    reg_cache: bool = true;
    "reg.cache" rw []
    "registration (pin-down) cache: reuse rendezvous/RMA mappings across requests";

    /// Entry capacity of the registration cache; the next acquire or
    /// release after a write evicts down to it.
    reg_cache_entries: usize = 128;
    "reg.cache_entries" rw [1..]
    "entry capacity of the registration cache";

    /// Bytes per pipeline chunk.
    pipeline_chunk: usize = 32 << 10;
    "pipe.chunk" rw [1..]
    "pipeline chunk size in bytes";

    /// Chunks allowed in flight per rail.
    pipeline_depth: usize = 4;
    "pipe.depth" rw [1..]
    "pipeline chunks allowed in flight per rail";

    /// Pipelined rendezvous: the DMA-issuing side splits an Elan bulk share
    /// of at least this many bytes into `pipeline_chunk`-sized pieces and
    /// registers chunk *i+1* while chunk *i*'s RDMA is in flight, hiding the
    /// pin-down cost behind the transfer (the MPICH2-over-InfiniBand
    /// optimization). Shorter shares keep the monolithic single-RDMA path
    /// (chunking overhead would outweigh the registration overlap);
    /// `usize::MAX` keeps every transfer monolithic.
    pipeline_min_len: usize = 256 << 10;
    "pipe.min_len" rw []
    "Elan shares below this many bytes keep the monolithic RDMA path";

    /// End-to-end credit-based flow control for eager/unexpected messages
    /// (the MPICH2-over-InfiniBand scheme): each peer grants
    /// `flow_credits` sends up front, every eager send consumes one, and
    /// credits travel back piggybacked on ACK/FIN_ACK frames (an explicit
    /// CREDIT_RETURN frame fires only when the receiver is hoarding).
    /// Senders out of credits queue locally instead of flooding the
    /// victim's receive queue. Off by default: the paper's stack has no
    /// end-to-end limit, and the incast benchmarks compare both settings.
    flow_enable: bool = false;
    "flow.enable" rw []
    "end-to-end injection flow control: per-peer eager credits + DMA cap";

    /// Per-peer initial credit grant, at most the receiver's bounce pool
    /// ([`crate::endpoint::FLOW_BOUNCE_POOL`] slots) so one sender cannot
    /// overrun it. `0` (the default) auto-scales at `Endpoint::init` so
    /// the whole job's worst-case in-flight eager traffic fits the pool:
    /// `clamp(FLOW_BOUNCE_POOL / max(1, nprocs - 1), 2, 16)`. A config may
    /// hold that 0; a runtime write may not.
    flow_credits: usize = 0;
    "flow.credits" rw [1..= crate::endpoint::FLOW_BOUNCE_POOL]
    "per-peer eager credit window (config 0 auto-scales to the job size at init)";

    /// Endpoint-wide cap on outstanding RDMA descriptors (all rails, all
    /// requests). `0` means uncapped. Only enforced while `flow_enable`
    /// is on — the GASNet elan-conduit NETWORKDEPTH throttle.
    flow_dma_cap: usize = 32;
    "flow.dma_cap" rw []
    "endpoint-wide outstanding RDMA descriptor cap; 0 = uncapped";

    /// Compile barrier/bcast/allreduce into NIC-resident chained event
    /// programs: once every rank has armed the program, each inter-hop
    /// transfer is NIC→NIC (a child's arriving QDMA decrements the parent's
    /// counted event, which fires the next chained QDMA) with exactly one
    /// host wakeup per rank at completion. Falls back to the host-driven
    /// trees for TCP-only routes, non-commutative reduce ops, payloads over
    /// the QDMA limit, and communicators without hardware-collective
    /// support. Must be set uniformly across the job. Armed programs are
    /// keyed by communicator and shape, so a runtime write steers only
    /// later collectives, and must still reach every rank before the next
    /// one.
    coll_nic_offload: bool = false;
    "coll.nic_offload" rw []
    "compile barrier/bcast/allreduce into NIC-resident chained event programs";

    /// Fan-out of the NIC-offloaded reduction/broadcast tree.
    coll_tree_radix: usize = 4;
    "coll.tree_radix" rw [2..]
    "fan-out of the NIC-offloaded collective tree (>= 2)";

    /// Let eligible broadcasts use the hardware broadcast rail
    /// (`ElanCtx::hw_bcast`) when the communicator spans a full
    /// rail-connected set; off, they take the binomial point-to-point tree.
    coll_hw_bcast: bool = true;
    "coll.hw_bcast" rw []
    "let eligible broadcasts use the hardware broadcast rail";

    /// Time-series sampler: snapshot queue depths / link occupancy into the
    /// endpoint's [`crate::introspect::Timeline`] every this much simulated
    /// time. `Dur::ZERO` (the default) disables sampling.
    timeline_interval: Dur = Dur::ZERO;
    "timeline.interval_ns" rw []
    "virtual-time gap between time-series telemetry samples; 0 disables";
}

/// Host CPU costs of the Open MPI layers.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// One matching attempt in the PML (walk posted/unexpected lists).
    pub pml_match: Dur,
    /// Building a 64-byte match/control header.
    pub hdr_build: Dur,
    /// Parsing an incoming header + dispatch.
    pub hdr_parse: Dur,
    /// Request allocation / completion bookkeeping.
    pub req_bookkeep: Dur,
    /// PML scheduling decision (choose PTL, slice message).
    pub sched: Dur,
    /// Fixed sender-side cost of staging payload through the pre-allocated
    /// send buffers (charged whenever a fragment carries data). Calibrated
    /// so the paper's no-inline rendezvous optimization wins above the
    /// threshold (§6.1).
    pub inline_copy_setup: Dur,
    /// Fixed receiver-side cost of copying payload out of a queue slot.
    pub unpack_setup: Dur,
    /// Allocating (and first-touching) a bounce region for an unexpected
    /// payload when the preallocated pool is exhausted — the cost the
    /// GASNet elan-conduit avoids by preallocating its bounce buffers.
    /// Charged only on the pool-miss path.
    pub bounce_alloc: Dur,
    /// Progress-thread to application-thread wakeup (condvar handoff).
    pub thread_handoff: Dur,
    /// Extra per-wakeup penalty when two progress threads contend for CPU
    /// and memory (paper §6.4: two-thread progress is slower).
    pub thread_contention: Dur,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            pml_match: Dur::from_ns(250),
            hdr_build: Dur::from_ns(150),
            hdr_parse: Dur::from_ns(100),
            req_bookkeep: Dur::from_ns(100),
            sched: Dur::from_ns(100),
            inline_copy_setup: Dur::from_ns(600),
            unpack_setup: Dur::from_ns(150),
            bounce_alloc: Dur::from_ns(2_000),
            thread_handoff: Dur::from_ns(4_000),
            thread_contention: Dur::from_ns(2_300),
        }
    }
}

impl StackConfig {
    /// The paper's best-performing configuration (used for Fig. 10):
    /// chained FIN, polling progress, no shared completion queue, rendezvous
    /// without inlined data.
    pub fn best() -> Self {
        StackConfig::default()
    }

    /// Panic with the first rule this config breaks ([`StackConfig::check`]).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The first rule this config breaks, if any: the progress mode must fit
    /// the completion mode, and every knob must lie in its row's range.
    pub fn check(&self) -> Result<(), String> {
        match (self.progress, self.completion) {
            (ProgressMode::OneThread, c) if c != CompletionMode::SharedQueueCombined => {
                return Err(
                    "one-thread progress requires the combined shared completion queue".into(),
                )
            }
            (ProgressMode::TwoThreads, c) if c != CompletionMode::SharedQueueSeparate => {
                return Err("two-thread progress requires the separate completion queue".into())
            }
            _ => {}
        }
        // A credit window of 0 asks `Endpoint::init` to size the window to
        // the job: the one value outside its row's range a config may hold.
        let resolved;
        let cfg = if self.flow_credits == 0 {
            resolved = StackConfig {
                flow_credits: 1,
                ..self.clone()
            };
            &resolved
        } else {
            self
        };
        CVARS.iter().try_for_each(|d| d.check(&d.get(cfg)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_best() {
        let c = StackConfig::best();
        c.validate();
        assert_eq!(c.scheme, RdmaScheme::Read);
        assert!(c.chained_fin);
        assert!(!c.inline_first_frag);
        assert_eq!(c.eager_limit, 1984);
        assert!(c.tcp_reliability);
        assert!(c.tcp_retransmit_timeout > Dur::ZERO);
        assert!(c.tcp_retransmit_backoff >= 1);
        assert!(c.reg_cache);
        assert!(c.reg_cache_entries > 0);
        assert!(c.pipeline_chunk > 0 && c.pipeline_depth >= 1);
        assert!(c.pipeline_min_len >= c.pipeline_chunk);
    }

    #[test]
    #[should_panic(expected = "pipe.depth = 0 is out of range (>= 1)")]
    fn zero_pipeline_depth_rejected() {
        let c = StackConfig {
            pipeline_depth: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "pipe.chunk = 0 is out of range (>= 1)")]
    fn zero_pipeline_chunk_rejected() {
        let c = StackConfig {
            pipeline_chunk: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn flow_defaults_are_off_but_sized() {
        let c = StackConfig::default();
        assert!(!c.flow_enable);
        assert_eq!(c.flow_credits, 0, "0 means auto-scale at init");
        let on = StackConfig {
            flow_enable: true,
            ..Default::default()
        };
        on.validate();
    }

    #[test]
    #[should_panic(expected = "flow.credits = 65 is out of range (1..=64)")]
    fn oversubscribed_credits_rejected() {
        let c = StackConfig {
            flow_enable: true,
            flow_credits: 65,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn coll_defaults_are_conservative() {
        let c = StackConfig::default();
        assert!(!c.coll_nic_offload, "offload is opt-in");
        assert_eq!(c.coll_tree_radix, 4);
        assert!(c.coll_hw_bcast);
    }

    #[test]
    #[should_panic(expected = "coll.tree_radix = 1 is out of range (>= 2)")]
    fn degenerate_tree_radix_rejected() {
        let c = StackConfig {
            coll_tree_radix: 1,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "reg.cache_entries = 0 is out of range (>= 1)")]
    fn zero_reg_cache_capacity_rejected() {
        let c = StackConfig {
            reg_cache_entries: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tcp.retransmit_backoff = 0 is out of range (>= 1)")]
    fn zero_backoff_rejected() {
        let c = StackConfig {
            tcp_retransmit_backoff: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "one-thread progress requires")]
    fn invalid_combo_rejected() {
        let c = StackConfig {
            progress: ProgressMode::OneThread,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [
            ProgressMode::Polling,
            ProgressMode::Interrupt,
            ProgressMode::OneThread,
            ProgressMode::TwoThreads,
        ] {
            assert_eq!(ProgressMode::from_cvar(&m.to_cvar()), Some(m));
        }
        assert_eq!(
            RdmaScheme::from_cvar(&CvarValue::Str("write".into())),
            Some(RdmaScheme::Write)
        );
        assert_eq!(RdmaScheme::from_cvar(&CvarValue::Str("dma".into())), None);
        assert_eq!(u32::from_cvar(&CvarValue::U64(1 << 40)), None);
        assert_eq!(Dur::from_cvar(&CvarValue::U64(7)), Some(Dur::from_ns(7)));
    }
}
