//! Stack-wide telemetry: cheap per-endpoint counters and log-bucketed
//! latency histograms.
//!
//! Everything here is plain data guarded by the endpoint's metrics lock and
//! is only touched when [`crate::StackConfig::metrics`] is set, so the
//! default fast path stays free of the bookkeeping. Snapshots serialize to
//! JSON by hand (the repository carries no serde), shaped for the
//! `metrics.json` document of `harness gate telemetry`.

use qsim::Dur;

/// Collective operations tallied per endpoint.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum CollOp {
    Barrier,
    Bcast,
    BcastHw,
    Scatter,
    Reduce,
    Allreduce,
    Gather,
    Allgather,
    Alltoall,
    Scan,
    ReduceScatter,
    Gatherv,
    Alltoallv,
}

/// All collective kinds, in counter order.
pub const COLL_OPS: [CollOp; 13] = [
    CollOp::Barrier,
    CollOp::Bcast,
    CollOp::BcastHw,
    CollOp::Scatter,
    CollOp::Reduce,
    CollOp::Allreduce,
    CollOp::Gather,
    CollOp::Allgather,
    CollOp::Alltoall,
    CollOp::Scan,
    CollOp::ReduceScatter,
    CollOp::Gatherv,
    CollOp::Alltoallv,
];

impl CollOp {
    /// Stable name used in JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Bcast => "bcast",
            CollOp::BcastHw => "bcast_hw",
            CollOp::Scatter => "scatter",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
            CollOp::Gather => "gather",
            CollOp::Allgather => "allgather",
            CollOp::Alltoall => "alltoall",
            CollOp::Scan => "scan",
            CollOp::ReduceScatter => "reduce_scatter",
            CollOp::Gatherv => "gatherv",
            CollOp::Alltoallv => "alltoallv",
        }
    }
}

/// Control-message kinds tallied by [`Counters::control_sent`].
pub const CONTROL_KINDS: [&str; 5] = ["ack", "fin", "fin_ack", "completion", "credit"];

/// Behavioural counters for one endpoint.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Sends that took the eager path.
    pub eager_sent: u64,
    /// Sends that took the rendezvous path.
    pub rndv_sent: u64,
    /// Receives posted.
    pub recvs_posted: u64,
    /// First fragments matched to a posted receive.
    pub matches: u64,
    /// First fragments that landed in the unexpected queue.
    pub unexpected_total: u64,
    /// High-water mark of any communicator's unexpected-queue depth.
    pub unexpected_hwm: u64,
    /// RDMA descriptors handed to the NIC.
    pub rdma_descriptors: u64,
    /// Bytes covered by those descriptors.
    pub rdma_bytes: u64,
    /// RDMA read batches issued (read scheme: one per matched pull).
    pub rdma_read_batches: u64,
    /// RDMA write batches issued (write scheme: one per ACK handled).
    pub rdma_write_batches: u64,
    /// Push fragments sent over non-RDMA transports (the TCP PTL).
    pub frags_sent: u64,
    /// Chained-QDMA completion tokens observed on the shared queue.
    pub chained_completions: u64,
    /// Control messages by kind: `[ack, fin, fin_ack, completion, credit]`,
    /// indexed as [`CONTROL_KINDS`]. Includes NIC-fired chained messages.
    pub control_sent: [u64; 5],
    /// Progress-engine sweeps (polling passes and progress-thread loops).
    pub progress_iterations: u64,
    /// Control frames retransmitted after a reliability timeout.
    pub retransmits: u64,
    /// Redelivered control frames suppressed as duplicates.
    pub dup_suppressed: u64,
    /// Control frames abandoned after exhausting retransmission retries
    /// (each marks its peer failed).
    pub gave_up: u64,
    /// Incoming frames dropped because their header failed to decode.
    pub corrupt_frames: u64,
    /// Reliability receipts (CTL_ACK) sent back for sequence-stamped
    /// control frames.
    pub ctl_acks_sent: u64,
    /// Requests completed with an error status instead of a payload
    /// (failed peer, no transport).
    pub reqs_failed: u64,
    /// Request errors actually surfaced to the application through
    /// `wait_result` / `waitany_result` / `waitall_result` / an
    /// error-carrying `Status`. Bounded by [`Counters::reqs_failed`]; a
    /// persistent gap means errors are being dropped on the floor.
    pub errs_surfaced: u64,
    /// Registration-cache hits (mapping reused). Maintained by
    /// [`crate::regcache`] and merged into snapshots; always counted,
    /// independent of the metrics gate.
    pub reg_hits: u64,
    /// Registration-cache misses (new mapping charged).
    pub reg_misses: u64,
    /// Idle cached mappings torn down by capacity pressure.
    pub reg_evictions: u64,
    /// Bytes currently covered by cached mappings.
    pub reg_mapped_bytes: u64,
    /// Rendezvous bulk transfers that went through the pipelined chunk
    /// engine.
    pub pipe_started: u64,
    /// Rendezvous bulk transfers eligible by scheme but kept monolithic
    /// (pipelining disabled, or the share below `pipe.min_len`).
    pub pipe_fallback: u64,
    /// Pipeline chunks handed to the NIC.
    pub pipe_chunks_issued: u64,
    /// Pipeline chunk completions observed.
    pub pipe_chunks_landed: u64,
    /// Deepest any one pipeline's in-flight chunk count ever got.
    pub pipe_depth_hwm: u64,
    /// Registration time charged while at least one chunk of the same
    /// pipeline was in flight — pin-down latency hidden behind the wire.
    pub pipe_reg_overlap_ns: u64,
    /// Eager sends parked locally because the peer was out of credits.
    pub flow_sends_queued: u64,
    /// Total virtual time sends spent parked in flow queues.
    pub flow_queued_ns: u64,
    /// Credits consumed by local eager sends.
    pub flow_credits_consumed: u64,
    /// Credits received back from peers (piggybacked + explicit).
    pub flow_credits_returned: u64,
    /// Explicit CREDIT_RETURN frames sent (the starvation escape hatch).
    pub flow_credit_frames: u64,
    /// Credits that rode along on ACK/FIN_ACK frames at zero wire cost.
    pub flow_piggybacked: u64,
    /// Never incremented. Kept only because the benchmark's layer table
    /// still reads it; drop it and its `flow.grant_deferrals` pvar with
    /// the next benchmark change.
    pub flow_grant_deferrals: u64,
    /// Sends that blocked on the endpoint-wide outstanding-DMA cap.
    pub flow_dma_waits: u64,
    /// Unexpected payloads staged in a preallocated bounce-pool slot.
    pub flow_pool_hits: u64,
    /// Unexpected payloads that fell back to a charged per-message
    /// allocation because the pool was dry (or the region oversize).
    pub flow_pool_fallbacks: u64,
    /// Collective operations entered, indexed as [`COLL_OPS`].
    pub coll: [u64; 13],
    /// NIC-resident collective event programs compiled and armed (one per
    /// distinct communicator/shape, reused across calls).
    pub coll_nic_programs: u64,
    /// Collectives that ran on a NIC-resident chained-event program.
    pub coll_nic_offloaded: u64,
    /// Collectives that wanted NIC offload but fell back to the host-driven
    /// path (TCP-only routes, unsupported op, oversize payload, ...).
    pub coll_nic_fallbacks: u64,
    /// Broadcasts sent over the hardware broadcast rail.
    pub coll_hw_bcasts: u64,
}

impl Counters {
    /// Add one control message by header-kind name index.
    pub fn control(&mut self, idx: usize) {
        self.control_sent[idx] += 1;
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
    /// Serialize everything as one JSON object.
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let control: Vec<String> = CONTROL_KINDS
            .iter()
            .zip(c.control_sent.iter())
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let coll: Vec<String> = COLL_OPS
            .iter()
            .zip(c.coll.iter())
            .filter(|(_, v)| **v > 0)
            .map(|(k, v)| format!("\"{}\":{v}", k.name()))
            .collect();
        format!(
            "{{\"counters\":{{\"eager_sent\":{},\"rndv_sent\":{},\"recvs_posted\":{},\
             \"matches\":{},\"unexpected_total\":{},\"unexpected_hwm\":{},\
             \"rdma_descriptors\":{},\"rdma_bytes\":{},\"rdma_read_batches\":{},\
             \"rdma_write_batches\":{},\"frags_sent\":{},\"chained_completions\":{},\
             \"control_sent\":{{{}}},\"progress_iterations\":{},\
             \"retransmits\":{},\"dup_suppressed\":{},\"gave_up\":{},\
             \"corrupt_frames\":{},\"ctl_acks_sent\":{},\"reqs_failed\":{},\
             \"errs_surfaced\":{},\"reg_hits\":{},\"reg_misses\":{},\
             \"reg_evictions\":{},\"reg_mapped_bytes\":{},\
             \"pipe_started\":{},\"pipe_fallback\":{},\
             \"pipe_chunks_issued\":{},\"pipe_chunks_landed\":{},\
             \"pipe_depth_hwm\":{},\"pipe_reg_overlap_ns\":{},\
             \"flow_sends_queued\":{},\"flow_queued_ns\":{},\
             \"flow_credits_consumed\":{},\"flow_credits_returned\":{},\
             \"flow_credit_frames\":{},\"flow_piggybacked\":{},\
             \"flow_grant_deferrals\":{},\"flow_dma_waits\":{},\
             \"flow_pool_hits\":{},\"flow_pool_fallbacks\":{},\
             \"coll_nic_programs\":{},\"coll_nic_offloaded\":{},\
             \"coll_nic_fallbacks\":{},\"coll_hw_bcasts\":{},\
             \"coll\":{{{}}}}},\
             \"histograms\":{{\"match_time\":{},\"rndv_handshake\":{},\"completion_time\":{}}}}}",
            c.eager_sent,
            c.rndv_sent,
            c.recvs_posted,
            c.matches,
            c.unexpected_total,
            c.unexpected_hwm,
            c.rdma_descriptors,
            c.rdma_bytes,
            c.rdma_read_batches,
            c.rdma_write_batches,
            c.frags_sent,
            c.chained_completions,
            control.join(","),
            c.progress_iterations,
            c.retransmits,
            c.dup_suppressed,
            c.gave_up,
            c.corrupt_frames,
            c.ctl_acks_sent,
            c.reqs_failed,
            c.errs_surfaced,
            c.reg_hits,
            c.reg_misses,
            c.reg_evictions,
            c.reg_mapped_bytes,
            c.pipe_started,
            c.pipe_fallback,
            c.pipe_chunks_issued,
            c.pipe_chunks_landed,
            c.pipe_depth_hwm,
            c.pipe_reg_overlap_ns,
            c.flow_sends_queued,
            c.flow_queued_ns,
            c.flow_credits_consumed,
            c.flow_credits_returned,
            c.flow_credit_frames,
            c.flow_piggybacked,
            c.flow_grant_deferrals,
            c.flow_dma_waits,
            c.flow_pool_hits,
            c.flow_pool_fallbacks,
            c.coll_nic_programs,
            c.coll_nic_offloaded,
            c.coll_nic_fallbacks,
            c.coll_hw_bcasts,
            coll.join(","),
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
        m.counters.control(0);
        m.counters.coll[CollOp::Bcast as usize] = 2;
        m.counters.retransmits = 1;
        m.counters.corrupt_frames = 4;
        m.counters.reg_hits = 7;
        m.counters.pipe_started = 2;
        m.counters.pipe_chunks_issued = 9;
        m.counters.pipe_depth(3);
        m.counters.control(4);
        m.counters.flow_sends_queued = 5;
        m.counters.flow_credits_consumed = 12;
        m.counters.flow_piggybacked = 6;
        m.counters.flow_pool_hits = 11;
        m.counters.coll_nic_programs = 1;
        m.counters.coll_nic_offloaded = 8;
        m.match_time.record(Dur::from_ns(300));
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"eager_sent\":3"));
        assert!(j.contains("\"ack\":1"));
        assert!(j.contains("\"bcast\":2"));
        assert!(j.contains("\"retransmits\":1"));
        assert!(j.contains("\"dup_suppressed\":0"));
        assert!(j.contains("\"gave_up\":0"));
        assert!(j.contains("\"corrupt_frames\":4"));
        assert!(j.contains("\"ctl_acks_sent\":0"));
        assert!(j.contains("\"reqs_failed\":0"));
        assert!(j.contains("\"errs_surfaced\":0"));
        assert!(j.contains("\"reg_hits\":7"));
        assert!(j.contains("\"reg_misses\":0"));
        assert!(j.contains("\"reg_evictions\":0"));
        assert!(j.contains("\"reg_mapped_bytes\":0"));
        assert!(j.contains("\"pipe_started\":2"));
        assert!(j.contains("\"pipe_fallback\":0"));
        assert!(j.contains("\"pipe_chunks_issued\":9"));
        assert!(j.contains("\"pipe_chunks_landed\":0"));
        assert!(j.contains("\"pipe_depth_hwm\":3"));
        assert!(j.contains("\"pipe_reg_overlap_ns\":0"));
        assert!(j.contains("\"credit\":1"));
        assert!(j.contains("\"flow_sends_queued\":5"));
        assert!(j.contains("\"flow_queued_ns\":0"));
        assert!(j.contains("\"flow_credits_consumed\":12"));
        assert!(j.contains("\"flow_credits_returned\":0"));
        assert!(j.contains("\"flow_credit_frames\":0"));
        assert!(j.contains("\"flow_piggybacked\":6"));
        assert!(j.contains("\"flow_grant_deferrals\":0"));
        assert!(j.contains("\"flow_dma_waits\":0"));
        assert!(j.contains("\"flow_pool_hits\":11"));
        assert!(j.contains("\"flow_pool_fallbacks\":0"));
        assert!(j.contains("\"coll_nic_programs\":1"));
        assert!(j.contains("\"coll_nic_offloaded\":8"));
        assert!(j.contains("\"coll_nic_fallbacks\":0"));
        assert!(j.contains("\"coll_hw_bcasts\":0"));
        assert!(j.contains("\"match_time\":{\"count\":1"));
    }
}
