//! Cross-rank critical-path analysis over merged trace logs.
//!
//! Every trace event carries the global message id ([`crate::hdr::msg_gid`])
//! of the logical operation it serves, and every rank runs on the same
//! simulated clock, so the union of all ranks' trace rings is a causally
//! consistent record: this module folds it, per message, into a named-stage
//! decomposition of end-to-end latency — where did the microseconds of a
//! 1 MiB rendezvous actually go?
//!
//! Stage model for a rendezvous message (boundaries are event times, clamped
//! monotone, so the stages sum to the measured total *exactly*):
//!
//! - `queued` — send posted until flow control released it (credit-parked
//!   sends only; absent when the send left immediately).
//! - `match_wait` — send posted until the receiver matched the RTS. Covers
//!   the wire flight of the first fragment and any time it sat unexpected.
//! - `handshake` — match until the first RDMA descriptor/chunk was issued.
//!   Covers the ACK hop (write scheme) and the leading registration.
//! - `wire` / `registration` / `host_gap` — the bulk window, partitioned by
//!   sweeping outstanding RDMA bytes: intervals with bytes in flight are
//!   `wire`; idle intervals inside a memory-registration window are
//!   `registration` (pin-down cost the pipeline failed to hide); the rest
//!   is `host_gap` (bookkeeping, scheduling, credit waits).
//! - `fin_wait` — last DMA completion until the last rank completed the
//!   request. Covers FIN/FIN_ACK flight and completion bookkeeping.
//!
//! Eager messages decompose into `match_wait` + `delivery`.
//!
//! As a cross-check, each message's `wire` intervals are intersected with
//! the receiver's ejection-link busy windows (from
//! `Fabric::node_busy_intervals`), yielding `queue_overlap_ns`: how much of
//! the presumed wire time the receiver's link was actually serializing —
//! low overlap on a congested run means the time was queueing, not moving
//! bytes.

use qsim::{FastMap, Time};

use crate::trace::{TraceEvent, TraceLog};

/// One gid's events, merged across ranks and ordered by time.
struct MsgEvents {
    /// `(t_ns, rank, event)` sorted by time.
    evs: Vec<(u64, u32, TraceEvent)>,
}

/// One message's critical-path decomposition.
#[derive(Clone, Debug)]
pub struct MsgPath {
    /// Global message id.
    pub gid: u64,
    /// Rank that posted the send.
    pub sender: u32,
    /// Rank that completed the receive.
    pub receiver: u32,
    /// Message length in bytes.
    pub len: usize,
    /// Eager (true) or rendezvous (false).
    pub eager: bool,
    /// Collective span id the send was posted under; 0 for point-to-point.
    pub coll: u64,
    /// End-to-end latency: send posted to last completion, ns.
    pub total_ns: u64,
    /// Named stages in path order; they sum to `total_ns` exactly.
    pub stages: Vec<(&'static str, u64)>,
    /// Of the `wire` stage, nanoseconds the receiver's ejection link was
    /// actually busy (0 when interval recording was off).
    pub queue_overlap_ns: u64,
}

impl MsgPath {
    /// Sum of the named stages (equals `total_ns` by construction).
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|(_, ns)| ns).sum()
    }

    /// Value of one named stage, 0 when absent.
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
            .unwrap_or(0)
    }

    fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(n, ns)| format!("\"{n}\":{ns}"))
            .collect();
        format!(
            "{{\"gid\":{},\"sender\":{},\"receiver\":{},\"len\":{},\"eager\":{},\
             \"coll\":{},\"total_ns\":{},\"stages\":{{{}}},\"queue_overlap_ns\":{}}}",
            self.gid,
            self.sender,
            self.receiver,
            self.len,
            self.eager,
            self.coll,
            self.total_ns,
            stages.join(","),
            self.queue_overlap_ns
        )
    }
}

/// Aggregated stage totals for one log2 message-size bucket.
#[derive(Clone, Debug)]
pub struct BucketStats {
    /// Bucket lower bound, inclusive (bytes).
    pub lo: usize,
    /// Bucket upper bound, exclusive (bytes).
    pub hi: usize,
    /// Messages in the bucket.
    pub msgs: usize,
    /// Sum of end-to-end latencies, ns.
    pub total_ns: u64,
    /// Per-stage sums across the bucket's messages.
    pub stages: Vec<(&'static str, u64)>,
}

impl BucketStats {
    fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(n, ns)| format!("\"{n}\":{ns}"))
            .collect();
        format!(
            "{{\"lo\":{},\"hi\":{},\"msgs\":{},\"total_ns\":{},\"stages\":{{{}}}}}",
            self.lo,
            self.hi,
            self.msgs,
            self.total_ns,
            stages.join(",")
        )
    }
}

/// The full critical-path report over a merged trace.
#[derive(Clone, Debug, Default)]
pub struct CritPathReport {
    /// Per-message decompositions, ordered by send-post time.
    pub msgs: Vec<MsgPath>,
    /// Per-log2-size-bucket aggregation, ordered by bucket.
    pub buckets: Vec<BucketStats>,
}

impl CritPathReport {
    /// JSON rendering of the whole report.
    pub fn to_json(&self) -> String {
        let msgs: Vec<String> = self.msgs.iter().map(|m| m.to_json()).collect();
        let buckets: Vec<String> = self.buckets.iter().map(|b| b.to_json()).collect();
        format!(
            "{{\"msgs\":[{}],\"buckets\":[{}]}}",
            msgs.join(","),
            buckets.join(",")
        )
    }

    /// Human-readable per-bucket table with stage percentages.
    pub fn render(&self) -> String {
        let mut out = String::from("critical-path breakdown by message size\n");
        out.push_str(
            "  bytes            msgs  total_ns     qued%  match%  hshake% wire%  reg%   gap%   fin%\n",
        );
        for b in &self.buckets {
            let pct = |name: &str| {
                let ns: u64 = b
                    .stages
                    .iter()
                    .filter(|(n, _)| *n == name)
                    .map(|(_, v)| v)
                    .sum();
                if b.total_ns == 0 {
                    0.0
                } else {
                    ns as f64 * 100.0 / b.total_ns as f64
                }
            };
            out.push_str(&format!(
                "  [{:>7},{:>7}) {:<5} {:<12} {:<6.1} {:<7.1} {:<7.1} {:<6.1} {:<6.1} {:<6.1} {:.1}\n",
                b.lo,
                b.hi,
                b.msgs,
                b.total_ns,
                pct("queued"),
                pct("match_wait"),
                pct("handshake"),
                pct("wire") + pct("delivery"),
                pct("registration"),
                pct("host_gap"),
                pct("fin_wait"),
            ));
        }
        out
    }
}

/// Total overlap between `[lo, hi)` and a set of `(start, end)` windows.
fn overlap(lo: u64, hi: u64, windows: &[(u64, u64)]) -> u64 {
    windows
        .iter()
        .map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo)))
        .sum()
}

/// Decompose one message's merged events into named stages.
fn decompose(gid: u64, m: &MsgEvents, ej_busy: &FastMap<u32, Vec<(u64, u64)>>) -> Option<MsgPath> {
    let mut t0 = None;
    let (mut sender, mut receiver) = (0u32, 0u32);
    let (mut len, mut eager, mut coll) = (0usize, false, 0u64);
    let mut tm = None; // first match
    let mut tsent = None; // credit-parked send released by flow control
    let mut tend = 0u64; // last completion
    let mut saw_complete = false;
    let mut reg: Vec<(u64, u64)> = Vec::new(); // registration windows
    let mut xfer: Vec<(u64, i64)> = Vec::new(); // (t, outstanding-bytes delta)
    for (t, rank, ev) in &m.evs {
        match ev {
            TraceEvent::SendPosted {
                coll: c,
                len: l,
                eager: e,
                ..
            } if t0.is_none() => {
                t0 = Some(*t);
                sender = *rank;
                len = *l;
                eager = *e;
                coll = *c;
            }
            TraceEvent::Matched { .. } if tm.is_none() => {
                tm = Some(*t);
                receiver = *rank;
            }
            TraceEvent::FlowSent { .. } if tsent.is_none() => {
                tsent = Some(*t);
            }
            TraceEvent::Registered { cost_ns, .. } => {
                reg.push((t.saturating_sub(*cost_ns), *t));
            }
            TraceEvent::RdmaIssued { bytes, .. } => xfer.push((*t, *bytes as i64)),
            TraceEvent::PipeChunk { len, .. } => xfer.push((*t, *len as i64)),
            TraceEvent::DmaDone { bytes, .. } => xfer.push((*t, -(*bytes as i64))),
            TraceEvent::Completed { .. } => {
                saw_complete = true;
                tend = tend.max(*t);
            }
            _ => {}
        }
    }
    let t0 = t0?;
    if !saw_complete || tend < t0 {
        return None; // still in flight (or the ring evicted its start)
    }
    let total_ns = tend - t0;
    let tm = tm.unwrap_or(tend).clamp(t0, tend);

    let mut stages: Vec<(&'static str, u64)> = Vec::new();
    // The `queued` stage appears only for credit-parked sends, so the
    // flow-off decomposition is byte-identical to the historical one.
    match tsent {
        Some(tq) => {
            let tq = tq.clamp(t0, tm);
            stages.push(("queued", tq - t0));
            stages.push(("match_wait", tm - tq));
        }
        None => stages.push(("match_wait", tm - t0)),
    }
    let mut queue_overlap_ns = 0;
    if eager || xfer.is_empty() {
        stages.push(("delivery", tend - tm));
    } else {
        xfer.sort_unstable_by_key(|&(t, _)| t);
        let txs = xfer
            .iter()
            .find(|&&(_, d)| d > 0)
            .map(|&(t, _)| t)
            .unwrap_or(tm)
            .clamp(tm, tend);
        let tld = xfer
            .iter()
            .rev()
            .find(|&&(_, d)| d < 0)
            .map(|&(t, _)| t)
            .unwrap_or(txs)
            .clamp(txs, tend);
        stages.push(("handshake", txs - tm));
        // Sweep the bulk window [txs, tld], partitioning by outstanding
        // bytes; the receiver's ejection busy windows price the wire share.
        let ej = ej_busy.get(&receiver).map(|v| v.as_slice()).unwrap_or(&[]);
        let (mut wire, mut regist, mut gap) = (0u64, 0u64, 0u64);
        let mut outstanding = 0i64;
        let mut prev = txs;
        for &(t, delta) in xfer.iter().chain(std::iter::once(&(tld, 0))) {
            let seg = (prev.max(txs), t.min(tld));
            if seg.1 > seg.0 {
                let span = seg.1 - seg.0;
                if outstanding > 0 {
                    wire += span;
                    queue_overlap_ns += overlap(seg.0, seg.1, ej);
                } else {
                    let r = overlap(seg.0, seg.1, &reg).min(span);
                    regist += r;
                    gap += span - r;
                }
            }
            prev = prev.max(t);
            outstanding += delta;
        }
        stages.push(("wire", wire));
        stages.push(("registration", regist));
        stages.push(("host_gap", gap));
        stages.push(("fin_wait", tend - tld));
    }
    Some(MsgPath {
        gid,
        sender,
        receiver,
        len,
        eager,
        coll,
        total_ns,
        stages,
        queue_overlap_ns,
    })
}

fn bucket_of(len: usize) -> (usize, usize) {
    if len == 0 {
        (0, 1)
    } else {
        let k = usize::BITS - 1 - len.leading_zeros();
        (1 << k, 1usize.checked_shl(k + 1).unwrap_or(usize::MAX))
    }
}

/// Analyze merged per-rank trace logs into a [`CritPathReport`].
///
/// `ej_busy` maps each rank to its node's recorded ejection-link busy
/// windows (see `Fabric::record_intervals`); pass an empty slice to skip
/// the queueing cross-check.
pub fn analyze(logs: &[(u32, &TraceLog)], ej_busy: &[(u32, Vec<(u64, u64)>)]) -> CritPathReport {
    let ej: FastMap<u32, Vec<(u64, u64)>> = ej_busy.iter().cloned().collect();
    // Bin every gid-carrying event; registration windows attach by gid too.
    let mut by_gid: FastMap<u64, MsgEvents> = FastMap::default();
    for (rank, log) in logs {
        for (t, ev) in log.iter() {
            let Some(gid) = ev.gid() else { continue };
            by_gid
                .entry(gid)
                .or_insert_with(|| MsgEvents { evs: Vec::new() })
                .evs
                .push((t.as_ns(), *rank, *ev));
        }
    }
    let mut msgs: Vec<MsgPath> = Vec::new();
    for (gid, m) in by_gid.iter_mut() {
        m.evs.sort_by_key(|(t, _, _)| *t);
        if let Some(p) = decompose(*gid, m, &ej) {
            msgs.push(p);
        }
    }
    msgs.sort_by_key(|p| (p.total_ns, p.gid));
    msgs.sort_by_key(|p| p.gid); // stable order: by gid (post order per rank)

    let mut buckets: Vec<BucketStats> = Vec::new();
    for p in &msgs {
        let (lo, hi) = bucket_of(p.len);
        let b = match buckets.iter_mut().find(|b| b.lo == lo) {
            Some(b) => b,
            None => {
                buckets.push(BucketStats {
                    lo,
                    hi,
                    msgs: 0,
                    total_ns: 0,
                    stages: Vec::new(),
                });
                buckets.last_mut().unwrap()
            }
        };
        b.msgs += 1;
        b.total_ns += p.total_ns;
        for (name, ns) in &p.stages {
            match b.stages.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => *acc += ns,
                None => b.stages.push((name, *ns)),
            }
        }
    }
    buckets.sort_by_key(|b| b.lo);
    CritPathReport { msgs, buckets }
}

/// Convenience for tests and tools: analyze one in-memory event stream
/// shaped as `(rank, time, event)` rows.
pub fn analyze_events(events: &[(u32, Time, TraceEvent)]) -> CritPathReport {
    let mut per_rank: FastMap<u32, TraceLog> = FastMap::default();
    for (rank, t, ev) in events {
        per_rank
            .entry(*rank)
            .or_insert_with(|| TraceLog::with_capacity(events.len().max(1)))
            .push((*t, *ev));
    }
    let logs: Vec<(u32, &TraceLog)> = per_rank.iter().map(|(r, l)| (*r, l)).collect();
    analyze(&logs, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: u32, t_ns: u64, ev: TraceEvent) -> (u32, Time, TraceEvent) {
        (rank, Time::from_ns(t_ns), ev)
    }

    fn rndv_stream() -> Vec<(u32, Time, TraceEvent)> {
        let gid = crate::hdr::msg_gid(0, 0, 1);
        vec![
            ev(
                0,
                100,
                TraceEvent::SendPosted {
                    req: 1,
                    gid,
                    coll: 0,
                    dst: 1,
                    tag: 9,
                    len: 1 << 20,
                    eager: false,
                },
            ),
            ev(
                1,
                600,
                TraceEvent::Matched {
                    req: 11,
                    gid,
                    src: 0,
                    tag: 9,
                    len: 1 << 20,
                },
            ),
            // 200ns of registration before the first chunk goes out.
            ev(
                1,
                900,
                TraceEvent::Registered {
                    gid,
                    bytes: 1 << 19,
                    cost_ns: 200,
                },
            ),
            ev(
                1,
                1000,
                TraceEvent::PipeChunk {
                    req: 11,
                    gid,
                    off: 0,
                    len: 1 << 19,
                    last: false,
                },
            ),
            ev(
                1,
                2000,
                TraceEvent::DmaDone {
                    gid,
                    bytes: 1 << 19,
                },
            ),
            // A visible idle gap: 2000..2300 registering the second half.
            ev(
                1,
                2300,
                TraceEvent::Registered {
                    gid,
                    bytes: 1 << 19,
                    cost_ns: 300,
                },
            ),
            ev(
                1,
                2300,
                TraceEvent::PipeChunk {
                    req: 11,
                    gid,
                    off: 1 << 19,
                    len: 1 << 19,
                    last: true,
                },
            ),
            ev(
                1,
                3300,
                TraceEvent::DmaDone {
                    gid,
                    bytes: 1 << 19,
                },
            ),
            ev(
                1,
                3400,
                TraceEvent::Completed {
                    req: 11,
                    gid,
                    send: false,
                },
            ),
            ev(
                0,
                3600,
                TraceEvent::Completed {
                    req: 1,
                    gid,
                    send: true,
                },
            ),
        ]
    }

    #[test]
    fn rendezvous_stages_partition_the_total_exactly() {
        let rep = analyze_events(&rndv_stream());
        assert_eq!(rep.msgs.len(), 1);
        let m = &rep.msgs[0];
        assert_eq!((m.sender, m.receiver), (0, 1));
        assert_eq!(m.len, 1 << 20);
        assert!(!m.eager);
        assert_eq!(m.total_ns, 3500);
        assert_eq!(m.stage_sum_ns(), m.total_ns);
        assert_eq!(m.stage_ns("match_wait"), 500);
        assert_eq!(m.stage_ns("handshake"), 400); // 600 -> 1000
        assert_eq!(m.stage_ns("wire"), 2000); // 1000..2000 + 2300..3300
        assert_eq!(m.stage_ns("registration"), 300); // idle 2000..2300
        assert_eq!(m.stage_ns("host_gap"), 0);
        assert_eq!(m.stage_ns("fin_wait"), 300); // 3300 -> 3600
        let nonzero = m.stages.iter().filter(|(_, ns)| *ns > 0).count();
        assert!(nonzero >= 4, "stages: {:?}", m.stages);
    }

    #[test]
    fn eager_messages_split_match_and_delivery() {
        let gid = crate::hdr::msg_gid(0, 2, 5);
        let rep = analyze_events(&[
            ev(
                2,
                50,
                TraceEvent::SendPosted {
                    req: 5,
                    gid,
                    coll: 7,
                    dst: 3,
                    tag: 1,
                    len: 256,
                    eager: true,
                },
            ),
            ev(
                3,
                450,
                TraceEvent::Matched {
                    req: 8,
                    gid,
                    src: 2,
                    tag: 1,
                    len: 256,
                },
            ),
            ev(
                3,
                500,
                TraceEvent::Completed {
                    req: 8,
                    gid,
                    send: false,
                },
            ),
        ]);
        let m = &rep.msgs[0];
        assert!(m.eager);
        assert_eq!(m.coll, 7);
        assert_eq!(m.total_ns, 450);
        assert_eq!(m.stage_ns("match_wait"), 400);
        assert_eq!(m.stage_ns("delivery"), 50);
        assert_eq!(m.stage_sum_ns(), m.total_ns);
    }

    #[test]
    fn credit_parked_sends_grow_a_queued_stage() {
        let gid = crate::hdr::msg_gid(0, 4, 3);
        let rep = analyze_events(&[
            ev(
                4,
                100,
                TraceEvent::SendPosted {
                    req: 3,
                    gid,
                    coll: 0,
                    dst: 5,
                    tag: 2,
                    len: 512,
                    eager: true,
                },
            ),
            // Parked on zero credits at post time, released 700ns later.
            ev(4, 100, TraceEvent::FlowQueued { req: 3, gid }),
            ev(4, 800, TraceEvent::FlowSent { req: 3, gid }),
            ev(
                5,
                1200,
                TraceEvent::Matched {
                    req: 9,
                    gid,
                    src: 4,
                    tag: 2,
                    len: 512,
                },
            ),
            ev(
                5,
                1300,
                TraceEvent::Completed {
                    req: 9,
                    gid,
                    send: false,
                },
            ),
        ]);
        assert_eq!(rep.msgs.len(), 1);
        let m = &rep.msgs[0];
        assert_eq!(m.stage_ns("queued"), 700);
        assert_eq!(m.stage_ns("match_wait"), 400);
        assert_eq!(m.stage_ns("delivery"), 100);
        assert_eq!(m.stage_sum_ns(), m.total_ns);
    }

    #[test]
    fn incomplete_messages_are_skipped() {
        let gid = crate::hdr::msg_gid(0, 0, 2);
        let rep = analyze_events(&[ev(
            0,
            10,
            TraceEvent::SendPosted {
                req: 2,
                gid,
                coll: 0,
                dst: 1,
                tag: 0,
                len: 64,
                eager: true,
            },
        )]);
        assert!(rep.msgs.is_empty());
    }

    #[test]
    fn buckets_aggregate_by_log2_size() {
        assert_eq!(bucket_of(0), (0, 1));
        assert_eq!(bucket_of(1), (1, 2));
        assert_eq!(bucket_of(1500), (1024, 2048));
        assert_eq!(bucket_of(1 << 20), (1 << 20, 1 << 21));
        let rep = analyze_events(&rndv_stream());
        assert_eq!(rep.buckets.len(), 1);
        let b = &rep.buckets[0];
        assert_eq!((b.lo, b.hi, b.msgs), (1 << 20, 1 << 21, 1));
        assert_eq!(b.total_ns, 3500);
        let json = rep.to_json();
        assert!(json.contains("\"stages\":{\"match_wait\":500"));
        assert!(json.contains("\"buckets\":[{\"lo\":1048576"));
        let text = rep.render();
        assert!(text.contains("critical-path breakdown"));
        assert!(text.contains("1048576"));
    }

    #[test]
    fn queue_overlap_prices_wire_time_against_ej_busy_windows() {
        let events = rndv_stream();
        let mut per_rank: FastMap<u32, TraceLog> = FastMap::default();
        for (rank, t, ev) in &events {
            per_rank
                .entry(*rank)
                .or_insert_with(|| TraceLog::with_capacity(64))
                .push((*t, *ev));
        }
        let logs: Vec<(u32, &TraceLog)> = per_rank.iter().map(|(r, l)| (*r, l)).collect();
        // Receiver's ejection link busy for the first wire interval only.
        let busy = vec![(1u32, vec![(1000u64, 2000u64)])];
        let rep = analyze(&logs, &busy);
        assert_eq!(rep.msgs[0].queue_overlap_ns, 1000);
        // Without intervals the cross-check reports zero.
        let rep2 = analyze(&logs, &[]);
        assert_eq!(rep2.msgs[0].queue_overlap_ns, 0);
    }
}
