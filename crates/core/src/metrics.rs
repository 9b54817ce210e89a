//! Stack-wide telemetry: cheap per-endpoint counters and log-bucketed
//! latency histograms.
//!
//! Everything here is plain data guarded by the endpoint's metrics lock and
//! is only touched when [`crate::StackConfig::metrics`] is set, so the
//! default fast path stays free of the bookkeeping. Each counter is one row
//! of the `counters!` table below, or one kind of [`ControlKind`] or
//! [`CollOp`]: the row yields the [`Counters`] field and the one dotted name
//! under which `metrics.json`, the pvars and `results/counters.md` show it.

use qsim::Dur;

/// One row of the counter table.
pub struct CounterDef {
    /// Dotted name, e.g. `pml.eager_sent`: the pvar and the JSON key.
    pub name: &'static str,
    /// `count`, `ns` (a summed duration), `max` (a high-water mark, whose
    /// cluster sum means nothing) or `gauge` (a current level).
    pub class: &'static str,
    /// The row's doc comment on one line.
    pub desc: &'static str,
    get: fn(&Counters) -> u64,
}

/// An enum of kinds, each counted in its own slot of the [`Counters`]
/// array `field`: the enum, its list in slot order, each kind's name, and
/// one `count` row per kind, named `prefix` + name and described by the
/// enum's doc comment.
macro_rules! counter_kinds {
    (
        $(#[doc = $doc:literal])*
        $ty:ident, $all:ident, $rows:ident: $field:ident as $prefix:literal {
            $($variant:ident => $name:literal,)*
        }
    ) => {
        $(#[doc = $doc])*
        #[derive(Copy, Clone, PartialEq, Eq, Debug)]
        #[allow(missing_docs)]
        pub enum $ty {
            $($variant,)*
        }

        #[doc = concat!("Every [`", stringify!($ty), "`], in slot order.")]
        pub const $all: &[$ty] = &[$($ty::$variant),*];

        impl $ty {
            const DESC: &'static str = concat!($($doc),*).trim_ascii();

            /// Stable name: the last part of the kind's counter name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }

        const $rows: &[CounterDef] = &[$(
            CounterDef {
                name: concat!($prefix, $name),
                class: "count",
                desc: $ty::DESC,
                get: |c| c.$field[$ty::$variant as usize],
            },
        )*];
    };
}

counter_kinds! {
    /// Control frames sent, counted by kind (CREDIT_RETURN is `credit`).
    /// NIC-fired chained frames count too.
    ControlKind, CONTROL_KINDS, CONTROL_ROWS: control_sent as "control." {
        Ack => "ack", Fin => "fin", FinAck => "fin_ack", Completion => "completion",
        Credit => "credit",
    }
}

counter_kinds! {
    /// Collective calls entered, counted by operation. Composed collectives
    /// also count the primitives they delegate to.
    CollOp, COLL_OPS, COLL_ROWS: coll as "coll.ops." {
        Barrier => "barrier", Bcast => "bcast", BcastHw => "bcast_hw", Scatter => "scatter",
        Reduce => "reduce", Allreduce => "allreduce", Gather => "gather",
        Allgather => "allgather", Alltoall => "alltoall", Scan => "scan",
        ReduceScatter => "reduce_scatter", Gatherv => "gatherv", Alltoallv => "alltoallv",
    }
}

/// The counter table. A row is the counter's docs, then
/// `field: class = "pvar.name";`.
macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $class:ident = $name:literal;
    )*) => {
        /// Behavioural counters for one endpoint.
        #[derive(Clone, Debug, Default)]
        pub struct Counters {
            $($(#[doc = $doc])* pub $field: u64,)*
            /// Control messages sent, indexed by [`ControlKind`].
            pub control_sent: [u64; CONTROL_KINDS.len()],
            /// Collective operations entered, indexed by [`CollOp`].
            pub coll: [u64; COLL_OPS.len()],
        }

        /// The scalar counters, in table order.
        const SCALAR_ROWS: &[CounterDef] = &[$(
            CounterDef {
                name: $name,
                class: stringify!($class),
                desc: concat!($($doc),*).trim_ascii(),
                get: |c| c.$field,
            },
        )*];
    };
}

counters! {
    /// Sends that took the eager path.
    eager_sent: count = "pml.eager_sent";
    /// Sends that took the rendezvous path.
    rndv_sent: count = "pml.rndv_sent";
    /// Receives posted.
    recvs_posted: count = "pml.recvs_posted";
    /// First fragments matched to a posted receive.
    matches: count = "pml.matches";
    /// First fragments that landed in the unexpected queue.
    unexpected_total: count = "pml.unexpected_total";
    /// High-water mark of any communicator's unexpected-queue depth.
    unexpected_hwm: max = "pml.unexpected_hwm";
    /// Push fragments sent over non-RDMA transports (the TCP PTL).
    frags_sent: count = "pml.frags_sent";
    /// RDMA descriptors handed to the NIC.
    rdma_descriptors: count = "rdma.descriptors";
    /// Bytes covered by the RDMA descriptors.
    rdma_bytes: count = "rdma.bytes";
    /// RDMA read batches issued (read scheme: one per matched pull).
    rdma_read_batches: count = "rdma.read_batches";
    /// RDMA write batches issued (write scheme: one per ACK handled).
    rdma_write_batches: count = "rdma.write_batches";
    /// Chained-QDMA completion tokens observed on the shared queue.
    chained_completions: count = "rdma.chained_completions";
    /// Progress-engine sweeps (polling passes and progress-thread loops).
    progress_iterations: count = "progress.iterations";
    /// Control frames retransmitted after a reliability timeout.
    retransmits: count = "rel.retransmits";
    /// Redelivered control frames suppressed as duplicates.
    dup_suppressed: count = "rel.dup_suppressed";
    /// Control frames abandoned after exhausting retransmission retries
    /// (each marks its peer failed).
    gave_up: count = "rel.gave_up";
    /// Incoming frames dropped because their header failed to decode.
    corrupt_frames: count = "rel.corrupt_frames";
    /// Reliability receipts (CTL_ACK) sent back for sequence-stamped
    /// control frames.
    ctl_acks_sent: count = "rel.ctl_acks_sent";
    /// Requests completed with an error status instead of a payload
    /// (failed peer, no transport).
    reqs_failed: count = "rel.reqs_failed";
    /// Request errors actually surfaced to the application through
    /// `wait_result` / `waitany_result` / `waitall_result` / an
    /// error-carrying `Status`. Bounded by `rel.reqs_failed`; a persistent
    /// gap means errors are being dropped on the floor.
    errs_surfaced: count = "rel.errs_surfaced";
    /// Registration-cache hits (mapping reused). The cache counts them,
    /// independent of the metrics gate, and `Endpoint::metrics_snapshot`
    /// merges them in.
    reg_hits: count = "reg.hits";
    /// Registration-cache misses (new mapping charged).
    reg_misses: count = "reg.misses";
    /// Idle cached mappings torn down by capacity pressure.
    reg_evictions: count = "reg.evictions";
    /// Bytes currently covered by cached mappings.
    reg_mapped_bytes: gauge = "reg.mapped_bytes";
    /// Rendezvous bulk transfers that went through the pipelined chunk
    /// engine.
    pipe_started: count = "pipe.started";
    /// Rendezvous bulk transfers eligible by scheme but kept monolithic
    /// (pipelining disabled, or the share below `pipe.min_len`).
    pipe_fallback: count = "pipe.fallback";
    /// Pipeline chunks handed to the NIC.
    pipe_chunks_issued: count = "pipe.chunks_issued";
    /// Pipeline chunk completions observed.
    pipe_chunks_landed: count = "pipe.chunks_landed";
    /// Deepest any one pipeline's in-flight chunk count ever got.
    pipe_depth_hwm: max = "pipe.depth_hwm";
    /// Registration time charged while at least one chunk of the same
    /// pipeline was in flight — pin-down latency hidden behind the wire.
    pipe_reg_overlap_ns: ns = "pipe.reg_overlap_ns";
    /// Eager sends parked locally because the peer was out of credits.
    flow_sends_queued: count = "flow.sends_queued";
    /// Total virtual time sends spent parked in flow queues.
    flow_queued_ns: ns = "flow.queued_ns";
    /// Credits consumed by local eager sends.
    flow_credits_consumed: count = "flow.credits_consumed";
    /// Credits received back from peers (piggybacked + explicit).
    flow_credits_returned: count = "flow.credits_returned";
    /// Explicit CREDIT_RETURN frames sent (the starvation escape hatch).
    flow_credit_frames: count = "flow.credit_frames";
    /// Credits that rode along on ACK/FIN_ACK frames at zero wire cost.
    flow_piggybacked: count = "flow.piggybacked";
    /// Never incremented. Kept only because the benchmark's layer table
    /// still reads it; drop its row with the next benchmark change.
    flow_grant_deferrals: count = "flow.grant_deferrals";
    /// Sends that blocked on the endpoint-wide outstanding-DMA cap.
    flow_dma_waits: count = "flow.dma_waits";
    /// Unexpected payloads staged in a preallocated bounce-pool slot.
    flow_pool_hits: count = "flow.pool_hits";
    /// Unexpected payloads that fell back to a charged per-message
    /// allocation because the pool was dry (or the region oversize).
    flow_pool_fallbacks: count = "flow.pool_fallbacks";
    /// NIC-resident collective event programs compiled and armed (one per
    /// distinct communicator/shape, reused across calls).
    coll_nic_programs: count = "coll.nic_programs";
    /// Collectives that ran on a NIC-resident chained-event program.
    coll_nic_offloaded: count = "coll.nic_offloaded";
    /// Collectives that wanted NIC offload but fell back to the host-driven
    /// path (TCP-only routes, unsupported op, oversize payload, ...).
    coll_nic_fallbacks: count = "coll.nic_fallbacks";
    /// Broadcasts sent over the hardware broadcast rail.
    coll_hw_bcasts: count = "coll.hw_bcasts";
}

impl Counters {
    /// Every row of the counter table: the scalar counters, then
    /// `control.<kind>`, then `coll.ops.<op>`.
    pub fn table() -> impl Iterator<Item = &'static CounterDef> {
        SCALAR_ROWS.iter().chain(CONTROL_ROWS).chain(COLL_ROWS)
    }

    /// Every counter as `(name, value)`, in [`Counters::table`] order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Self::table().map(move |d| (d.name, (d.get)(self)))
    }

    /// Add one control message of `kind`.
    pub fn control(&mut self, kind: ControlKind) {
        self.control_sent[kind as usize] += 1;
    }

    /// Raise the unexpected-queue high-water mark to `depth`.
    pub fn unexpected_depth(&mut self, depth: usize) {
        self.unexpected_hwm = self.unexpected_hwm.max(depth as u64);
    }

    /// Raise the pipeline in-flight high-water mark to `depth`.
    pub fn pipe_depth(&mut self, depth: usize) {
        self.pipe_depth_hwm = self.pipe_depth_hwm.max(depth as u64);
    }
}

/// Number of log2 buckets: enough for any u64 nanosecond value.
const BUCKETS: usize = 64;

/// A log2-bucketed latency histogram over nanoseconds.
///
/// Bucket `0` holds exact zeros; bucket `i > 0` holds durations in
/// `[2^(i-1), 2^i)` ns. Recording is a handful of integer ops, cheap enough
/// to leave on for every request when metrics are enabled.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            BUCKETS - ns.leading_zeros() as usize
        }
        .min(BUCKETS - 1)
    }

    /// Record one duration.
    pub fn record(&mut self, d: Dur) {
        self.record_ns(d.as_ns());
    }

    /// Record one sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Smallest sample, or `None` when empty.
    pub fn min_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ns)
    }

    /// Largest sample, or `None` when empty.
    pub fn max_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ns)
    }

    /// Mean sample in nanoseconds, or `None` when empty.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }

    /// Non-empty buckets as `(lower_ns, upper_ns, count)`, lower inclusive,
    /// upper exclusive.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (lo, hi) = if i == 0 {
                    (0, 1)
                } else {
                    (
                        1u64 << (i - 1),
                        1u64.checked_shl(i as u32).unwrap_or(u64::MAX),
                    )
                };
                (lo, hi, *c)
            })
            .collect()
    }

    /// Upper bound of the bucket holding quantile `q` (0..=1), or `None`
    /// when empty. Bucketed, so accurate to a factor of two.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 0 {
                    0
                } else if i == BUCKETS - 1 {
                    // The top bucket also absorbs samples >= 2^63, so its
                    // nominal upper bound can undershoot; saturate to the
                    // observed maximum (which must live in this bucket).
                    (1u64 << (BUCKETS - 1)).max(self.max_ns)
                } else {
                    1u64 << i
                });
            }
        }
        Some(self.max_ns)
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum_ns,
            self.min_ns().unwrap_or(0),
            self.max_ns().unwrap_or(0),
            buckets.join(",")
        )
    }
}

/// Per-endpoint telemetry: counters plus the three latency histograms the
/// paper's figures motivate.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Event counters.
    pub counters: Counters,
    /// Match latency: from the later of {receive posted, fragment arrived}
    /// to the match, so it covers both the posted-queue walk and the time a
    /// message waits in the unexpected queue.
    pub match_time: Histogram,
    /// Rendezvous handshake: from posting the rendezvous fragment to the
    /// sender first hearing back (ACK or FIN_ACK).
    pub rndv_handshake: Histogram,
    /// Request completion: from posting to the request's done transition,
    /// sends and receives combined.
    pub completion_time: Histogram,
}

impl Metrics {
    /// Serialize everything as one JSON object: every counter row under
    /// its dotted name, then the histograms.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .rows()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"histograms\":{{\"match_time\":{},\
             \"rndv_handshake\":{},\"completion_time\":{}}}}}",
            counters.join(","),
            self.match_time.to_json(),
            self.rndv_handshake.to_json(),
            self.completion_time.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for ns in [0, 1, 2, 3, 4, 1000, 1024, u64::MAX] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.max_ns(), Some(u64::MAX));
        let b = h.nonzero_buckets();
        // 0 -> [0,1); 1 -> [1,2); 2,3 -> [2,4); 4 -> [4,8);
        // 1000 -> [512,1024); 1024 -> [1024,2048); MAX -> last bucket.
        assert_eq!(b[0], (0, 1, 1));
        assert_eq!(b[1], (1, 2, 1));
        assert_eq!(b[2], (2, 4, 2));
        assert_eq!(b[3], (4, 8, 1));
        assert_eq!(b[4], (512, 1024, 1));
        assert_eq!(b[5], (1024, 2048, 1));
        assert_eq!(b.iter().map(|(_, _, c)| c).sum::<u64>(), 8);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns(), None);
        assert_eq!(h.max_ns(), None);
        assert_eq!(h.mean_ns(), None);
        assert_eq!(h.quantile_ns(0.5), None);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantile_walks_buckets() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(Dur::from_ns(100));
        }
        h.record(Dur::from_us(100));
        // Median lives in the [64,128) bucket; p999 in the big one.
        assert_eq!(h.quantile_ns(0.5), Some(128));
        assert!(h.quantile_ns(0.999).unwrap() >= 100_000);
    }

    #[test]
    fn quantile_empty_histogram_is_none_for_all_q() {
        let h = Histogram::default();
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile_ns(q), None);
        }
    }

    #[test]
    fn quantile_single_sample_is_its_bucket_for_all_q() {
        let mut h = Histogram::default();
        h.record_ns(100); // bucket [64,128) -> upper bound 128
        for q in [0.0, 0.001, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile_ns(q), Some(128), "q={q}");
        }
        // A single zero sample sits in the exact-zero bucket.
        let mut z = Histogram::default();
        z.record_ns(0);
        assert_eq!(z.quantile_ns(0.0), Some(0));
        assert_eq!(z.quantile_ns(1.0), Some(0));
    }

    #[test]
    fn quantile_extremes_hit_first_and_last_occupied_buckets() {
        let mut h = Histogram::default();
        h.record_ns(0);
        for _ in 0..8 {
            h.record_ns(1000); // [512,1024)
        }
        h.record_ns((1 << 20) - 1); // [2^19, 2^20)
                                    // q=0 clamps to the first sample (the zero bucket).
        assert_eq!(h.quantile_ns(0.0), Some(0));
        // q=1 must reach the last occupied bucket, never beyond max.
        assert_eq!(h.quantile_ns(1.0), Some(1 << 20));
        assert!(h.quantile_ns(1.0).unwrap() >= h.max_ns().unwrap());
    }

    #[test]
    fn quantile_saturating_top_bucket_does_not_overflow() {
        let mut h = Histogram::default();
        h.record_ns(u64::MAX); // top bucket: upper bound saturates
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile_ns(q).unwrap();
            // 1u64 << 64 would overflow; the bound must saturate instead
            // and still dominate the recorded maximum's bucket lower bound.
            assert_eq!(v, u64::MAX, "q={q}");
        }
        // Mixed: the huge sample only surfaces at the top quantiles.
        let mut m = Histogram::default();
        for _ in 0..9 {
            m.record_ns(10);
        }
        m.record_ns(u64::MAX);
        assert_eq!(m.quantile_ns(0.5), Some(16));
        assert_eq!(m.quantile_ns(1.0), Some(u64::MAX));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut m = Metrics::default();
        m.counters.eager_sent = 3;
        m.counters.control(ControlKind::Ack);
        m.counters.coll[CollOp::Bcast as usize] = 2;
        m.counters.retransmits = 1;
        m.counters.corrupt_frames = 4;
        m.counters.reg_hits = 7;
        m.counters.pipe_started = 2;
        m.counters.pipe_chunks_issued = 9;
        m.counters.pipe_depth(3);
        m.counters.control(ControlKind::Credit);
        m.counters.flow_sends_queued = 5;
        m.counters.flow_credits_consumed = 12;
        m.counters.flow_piggybacked = 6;
        m.counters.flow_pool_hits = 11;
        m.counters.coll_nic_programs = 1;
        m.counters.coll_nic_offloaded = 8;
        m.match_time.record(Dur::from_ns(300));
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        // 44 scalar counters, 5 control kinds, 13 collective ops.
        assert_eq!(m.counters.rows().count(), 44 + 5 + 13);
        for ((name, v), def) in m.counters.rows().zip(Counters::table()) {
            let key = format!("\"{name}\":");
            assert_eq!(j.matches(&key).count(), 1, "{name} appears once");
            let rest = &j[j.find(&key).unwrap() + key.len()..];
            let end = rest.find([',', '}']).unwrap();
            assert_eq!(&rest[..end], v.to_string(), "{name} value");
            assert!(!def.desc.is_empty(), "{name} has docs");
            assert!(
                ["count", "ns", "max", "gauge"].contains(&def.class),
                "{name} class"
            );
        }
        // Every value written above reaches a row.
        let total: u64 = m.counters.rows().map(|(_, v)| v).sum();
        assert_eq!(
            total,
            3 + 1 + 2 + 1 + 4 + 7 + 2 + 9 + 3 + 1 + 5 + 12 + 6 + 11 + 1 + 8
        );
        assert!(j.contains("\"match_time\":{\"count\":1"));
    }
}
