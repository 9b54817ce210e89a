//! Per-layer metrics of the traced run: the benchmark's spans around each
//! layer's public calls, and each layer's public counters read before and
//! after the timed phase. `PREDICTIONS.md` says which end-to-end metric
//! each one should move, and on which workload.

use std::collections::BTreeMap;

use openmpi_core::{Histogram, Metrics, PtlKind, PtlTraffic};
use qsnet::LinkKind;

use crate::harness::{RepOut, Span};
use crate::stats::{median, ratio};
use crate::workloads::{coll256, Plan};

/// MPI calls the workloads make, each timed by a span of the same name.
const CALLS: [&str; 7] = [
    "send",
    "recv",
    "isend",
    "waitall",
    "barrier",
    "bcast",
    "allreduce",
];
/// Size classes of the critical-path breakdown.
const CLASSES: [&str; 3] = ["eager", "rndv", "pipelined"];
/// Messages from this size up take the pipelined rendezvous
/// (`StackConfig::pipeline_min_len`).
const PIPELINED_FROM: usize = 256 << 10;
/// Critical-path stages (`critpath.rs`); eager messages use `match_wait`,
/// `queued` and `delivery`.
const STAGES: [&str; 8] = [
    "match_wait",
    "handshake",
    "wire",
    "registration",
    "host_gap",
    "fin_wait",
    "queued",
    "delivery",
];

/// One named metric with its unit.
pub struct Metric {
    /// Dotted name, `<layer>.<what>`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The runs the per-layer metrics are taken from.
pub struct Inputs<'a> {
    /// The workload.
    pub plan: &'a Plan,
    /// Untraced run of the full plan.
    pub plain: &'a RepOut,
    /// Traced run of the full plan.
    pub traced: &'a RepOut,
    /// Kernel report of a run that stops after warm-up.
    pub warm_only: &'a qsim::Report,
    /// Init-only world of the same size.
    pub init_only: &'a RepOut,
    /// Wall time tracing added to the timed phase, as a share of it.
    pub overhead_frac: f64,
}

/// Every per-layer metric, plus any check the traced run failed.
pub fn collect(i: &Inputs) -> (Vec<Metric>, Vec<String>) {
    let mut out = Vec::new();
    let mut problems = Vec::new();
    let mut m = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    let t = i.traced;
    let ops = t.attempted as f64;
    m("ops", ops, "count");

    // qsim: the kernel, from the untraced run; per-op figures net of a run
    // that stops after warm-up.
    let (r, w) = (&i.plain.report, i.warm_only);
    let per_op = |full: u64, warm: u64| ratio(full.saturating_sub(warm) as f64, ops);
    m(
        "qsim.events_per_op",
        per_op(r.events_processed, w.events_processed),
        "count/op",
    );
    m(
        "qsim.wakes_per_op",
        per_op(r.wakes_executed, w.wakes_executed),
        "count/op",
    );
    m(
        "qsim.calls_per_op",
        per_op(r.calls_executed, w.calls_executed),
        "count/op",
    );
    m("qsim.stale_wakes", r.stale_wakes as f64, "count");
    m("qsim.max_queue_depth", r.max_queue_depth as f64, "count");
    m(
        "qsim.wall_ns_per_event",
        ratio(r.wall_ns as f64, r.events_processed as f64),
        "ns",
    );

    // rte: launch, modex and the OOB barrier, from an init-only world.
    let init = i.init_only;
    m("rte.init_wall_s", init.init_wall_s, "s");
    m(
        "rte.init_events",
        init.report.events_processed as f64,
        "count",
    );
    m("rte.init_wakes", init.report.wakes_executed as f64, "count");

    // core.pml / core.coll at the API boundary: the benchmark's spans.
    for call in CALLS {
        let spans: Vec<&Span> = t.spans.iter().filter(|s| s.name == call).collect();
        let v: Vec<f64> = spans
            .iter()
            .map(|s| (s.virt.1 - s.virt.0) as f64 / 1e3)
            .collect();
        let wl: Vec<f64> = spans
            .iter()
            .map(|s| (s.wall.1 - s.wall.0) as f64 / 1e3)
            .collect();
        m(&format!("pml.{call}.virt_us_p50"), median(&v), "us");
        m(&format!("pml.{call}.wall_us_p50"), median(&wl), "us");
    }

    // core.pml counters, summed over ranks across the timed phase.
    let c = |f: fn(&Metrics) -> u64| -> f64 {
        t.ranks
            .iter()
            .map(|r| f(&r.metrics.1).saturating_sub(f(&r.metrics.0)))
            .sum::<u64>() as f64
    };
    m(
        "pml.eager_per_op",
        ratio(c(|m| m.counters.eager_sent), ops),
        "count/op",
    );
    m(
        "pml.rndv_per_op",
        ratio(c(|m| m.counters.rndv_sent), ops),
        "count/op",
    );
    m(
        "pml.unexpected_total",
        c(|m| m.counters.unexpected_total),
        "count",
    );
    let hwm = t
        .ranks
        .iter()
        .map(|r| r.metrics.1.counters.unexpected_hwm)
        .max();
    m("pml.unexpected_hwm", hwm.unwrap_or(0) as f64, "count");
    m("pml.match_ns_p50", match_p50(t), "ns");
    m(
        "pml.progress_iters_per_op",
        ratio(c(|m| m.counters.progress_iterations), ops),
        "count/op",
    );

    // core.critpath: per-message stage decomposition of point-to-point
    // traffic in the timed phase.
    let logs: Vec<(u32, &openmpi_core::TraceLog)> =
        t.ranks.iter().map(|r| (r.rank, &r.trace)).collect();
    let dropped: u64 = logs.iter().map(|(_, l)| l.dropped()).sum();
    if dropped > 0 {
        problems.push(format!("trace rings dropped {dropped} events"));
    }
    let report = openmpi_core::critpath::analyze(&logs, &[]);
    let mut per_class: BTreeMap<&str, (u64, BTreeMap<&str, u64>)> = BTreeMap::new();
    for msg in report.msgs.iter().filter(|m| m.coll == 0) {
        if msg.stage_sum_ns() != msg.total_ns {
            problems.push(format!(
                "message {} stages sum to {} ns, total {} ns",
                msg.gid,
                msg.stage_sum_ns(),
                msg.total_ns
            ));
        }
        let class = match (msg.eager, msg.len >= PIPELINED_FROM) {
            (true, _) => "eager",
            (false, false) => "rndv",
            (false, true) => "pipelined",
        };
        let e = per_class.entry(class).or_default();
        e.0 += 1;
        for (stage, ns) in &msg.stages {
            *e.1.entry(stage).or_default() += ns;
        }
    }
    for class in CLASSES {
        let (n, stages) = per_class.remove(class).unwrap_or_default();
        m(&format!("crit.{class}.msgs"), n as f64, "count");
        for stage in STAGES {
            let total = stages.get(stage).copied().unwrap_or(0);
            m(
                &format!("crit.{class}.{stage}_ns"),
                ratio(total as f64, n as f64),
                "ns",
            );
        }
    }

    // core.regcache and the pipeline.
    let (hits, misses) = (c(|m| m.counters.reg_hits), c(|m| m.counters.reg_misses));
    m("reg.hit_ratio", ratio(hits, hits + misses), "ratio");
    m("reg.lookups", hits + misses, "count");
    m("reg.evictions", c(|m| m.counters.reg_evictions), "count");
    let pipes = c(|m| m.counters.pipe_started);
    m("pipe.msgs", pipes, "count");
    m(
        "pipe.chunks_per_msg",
        ratio(c(|m| m.counters.pipe_chunks_issued), pipes),
        "count",
    );
    m(
        "pipe.reg_overlap_ns",
        c(|m| m.counters.pipe_reg_overlap_ns),
        "ns",
    );

    // core.flow: credits and the bounce pool.
    m(
        "flow.sends_queued",
        c(|m| m.counters.flow_sends_queued),
        "count",
    );
    m("flow.queued_ns", c(|m| m.counters.flow_queued_ns), "ns");
    let (pool_hit, pool_miss) = (
        c(|m| m.counters.flow_pool_hits),
        c(|m| m.counters.flow_pool_fallbacks),
    );
    m(
        "flow.pool_hit_ratio",
        ratio(pool_hit, pool_hit + pool_miss),
        "ratio",
    );
    m("flow.pool_lookups", pool_hit + pool_miss, "count");
    let (piggy, frames) = (
        c(|m| m.counters.flow_piggybacked),
        c(|m| m.counters.flow_credit_frames),
    );
    m(
        "flow.piggyback_ratio",
        ratio(piggy, piggy + frames),
        "ratio",
    );
    m("flow.credit_returns", piggy + frames, "count");
    m(
        "flow.grant_deferrals",
        c(|m| m.counters.flow_grant_deferrals),
        "count",
    );

    // core.coll: NIC offload and per-kind latency.
    let (off, fb) = (
        c(|m| m.counters.coll_nic_offloaded),
        c(|m| m.counters.coll_nic_fallbacks),
    );
    m("coll.nic_offloaded_ratio", ratio(off, off + fb), "ratio");
    m("coll.calls", off + fb, "count");
    m("coll.nic_fallbacks", fb, "count");
    let programs: u64 = t
        .ranks
        .iter()
        .map(|r| r.metrics.1.counters.coll_nic_programs)
        .sum();
    m("coll.nic_programs", programs as f64, "count");
    for kind in coll256::KINDS {
        let (virt, wall) = coll_kind(i.plan, t, kind);
        m(&format!("coll.{kind}.virt_us_p50"), virt, "us");
        m(&format!("coll.{kind}.wall_ms_p50"), wall, "ms");
    }

    // core.ptl: Elan4 frames and bytes handed to the PTL.
    let ptl = |f: fn(&PtlTraffic) -> u64| -> f64 {
        let sum = |v: &[PtlTraffic]| -> u64 {
            v.iter()
                .filter(|x| matches!(x.kind, PtlKind::Elan4 { .. }))
                .map(f)
                .sum()
        };
        t.ranks
            .iter()
            .map(|r| sum(&r.traffic.1).saturating_sub(sum(&r.traffic.0)))
            .sum::<u64>() as f64
    };
    m(
        "ptl.elan4.frames_per_op",
        ratio(ptl(|x| x.sent_frames), ops),
        "count/op",
    );
    m(
        "ptl.elan4.bytes_per_op",
        ratio(ptl(|x| x.sent_bytes), ops),
        "B/op",
    );

    // elan4 (NIC) and qsnet (fabric): machine-wide counters.
    let (b, a) = t
        .machine
        .as_ref()
        .expect("traced runs snapshot the machine");
    let nic = |f: fn(&elan4::ClusterStats) -> u64| (f(&a.nic) - f(&b.nic)) as f64;
    m(
        "elan4.qdmas_per_op",
        ratio(nic(|s| s.qdmas), ops),
        "count/op",
    );
    m(
        "elan4.rdmas_per_op",
        ratio(nic(|s| s.rdmas), ops),
        "count/op",
    );
    m(
        "elan4.chained_launches_per_op",
        ratio(nic(|s| s.chained_launches), ops),
        "count/op",
    );
    m(
        "elan4.event_writes_per_op",
        ratio(nic(|s| s.event_writes), ops),
        "count/op",
    );
    m(
        "elan4.interrupts_per_op",
        ratio(nic(|s| s.interrupts), ops),
        "count/op",
    );
    m("elan4.queue_overflows", nic(|s| s.queue_overflows), "count");
    let fab = |f: fn(&qsnet::FabricStats) -> u64| (f(&a.fabric) - f(&b.fabric)) as f64;
    let payload = fab(|s| s.payload_bytes);
    m(
        "qsnet.packets_per_op",
        ratio(fab(|s| s.packets), ops),
        "count/op",
    );
    m("qsnet.payload_bytes", payload, "B");
    m(
        "qsnet.wire_over_payload",
        ratio(fab(|s| s.wire_bytes), payload),
        "ratio",
    );
    let elapsed = (a.at_ns - b.at_ns) as f64;
    m(
        "qsnet.victim_ej_queue_peak",
        a.victim_ej.queue_peak as f64,
        "count",
    );
    m(
        "qsnet.victim_ej_busy_frac",
        ratio((a.victim_ej.busy_ns - b.victim_ej.busy_ns) as f64, elapsed),
        "ratio",
    );
    m("qsnet.hot_link_occupancy", hot_link(b, a).1, "ratio");

    // Tracing itself, and each layer's self time at the API boundary.
    m("trace.overhead_frac", i.overhead_frac, "ratio");
    m("trace.spans", t.spans.len() as f64, "count");
    for (layer, wall_ms, virt_us) in self_times(&t.spans) {
        m(&format!("self.{layer}.wall_ms"), wall_ms, "ms");
        m(&format!("self.{layer}.virt_us"), virt_us, "us");
    }
    (out, problems)
}

/// Median of the match-time histogram's growth over the timed phase,
/// merged over ranks: the upper bound of the log2 bucket holding it.
fn match_p50(t: &RepOut) -> f64 {
    let mut delta: BTreeMap<u64, i64> = BTreeMap::new();
    let mut add = |h: &Histogram, sign: i64| {
        for (lo, hi, n) in h.nonzero_buckets() {
            // Bucket 0 holds exact zeros; the others report their upper bound.
            let key = if lo == 0 { 0 } else { hi };
            *delta.entry(key).or_default() += sign * n as i64;
        }
    };
    for r in &t.ranks {
        add(&r.metrics.1.match_time, 1);
        add(&r.metrics.0.match_time, -1);
    }
    let total: i64 = delta.values().sum();
    let mut seen = 0;
    for (hi, n) in delta {
        seen += n;
        if total > 0 && 2 * seen >= total {
            return hi as f64;
        }
    }
    0.0
}

/// A `coll256` kind's median virtual latency (µs) and median wall time
/// (ms) from the first rank entering to the last rank leaving; 0 on the
/// other workloads.
fn coll_kind(plan: &Plan, t: &RepOut, kind: &str) -> (f64, f64) {
    let Plan::Coll256(p) = plan else {
        return (0.0, 0.0);
    };
    let mut wall: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in t.spans.iter().filter(|s| s.name == "op") {
        let e = wall.entry(s.op).or_insert((u64::MAX, 0));
        e.0 = e.0.min(s.wall.0);
        e.1 = e.1.max(s.wall.1);
    }
    let ids: Vec<usize> = (0..p.ops.len())
        .filter(|&k| p.ops[k].kind.name() == kind)
        .collect();
    let virt: Vec<f64> = ids.iter().map(|&k| t.virt.lat_ns[k] as f64 / 1e3).collect();
    let wall: Vec<f64> = ids
        .iter()
        .filter_map(|&k| wall.get(&(k as u64)))
        .map(|(a, b)| b.saturating_sub(*a) as f64 / 1e6)
        .collect();
    (median(&virt), median(&wall))
}

/// The host link (injection or ejection) busiest over the timed phase, and
/// its occupancy. Only host links serialize packets; switch links book
/// overlapping packets, so their busy time can exceed the elapsed time.
pub fn hot_link(b: &crate::harness::MachineSnap, a: &crate::harness::MachineSnap) -> (String, f64) {
    let before: BTreeMap<String, u64> = b.links.iter().map(|l| (l.name(), l.busy_ns)).collect();
    let elapsed = (a.at_ns - b.at_ns) as f64;
    a.links
        .iter()
        .filter(|l| matches!(l.kind, LinkKind::Injection | LinkKind::Ejection))
        .map(|l| {
            let busy = l.busy_ns - before.get(&l.name()).copied().unwrap_or(0);
            (l.name(), ratio(busy as f64, elapsed))
        })
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .unwrap_or_default()
}

/// Layer a span's self time belongs to.
fn layer(name: &str) -> &'static str {
    match name {
        "op" | "round" => "bench",
        "barrier" | "bcast" | "allreduce" => "coll",
        _ => "pml",
    }
}

/// Self time per layer, `(layer, wall ms, virtual µs)`: each span's
/// duration minus the part of it its child spans cover, summed over spans.
fn self_times(spans: &[Span]) -> Vec<(&'static str, f64, f64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (k, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(k);
        }
    }
    let mut sums: BTreeMap<&str, (u64, u64)> = ["bench", "pml", "coll"]
        .iter()
        .map(|&l| (l, (0, 0)))
        .collect();
    for (k, s) in spans.iter().enumerate() {
        let kids = &children[k];
        let e = sums.entry(layer(s.name)).or_default();
        e.0 += s.wall.1 - s.wall.0 - covered(kids.iter().map(|&c| spans[c].wall));
        e.1 += s.virt.1 - s.virt.0 - covered(kids.iter().map(|&c| spans[c].virt));
    }
    sums.into_iter()
        .map(|(l, (w, v))| (l, w as f64 / 1e6, v as f64 / 1e3))
        .collect()
}

/// Length of the union of intervals.
fn covered(iv: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> = iv.collect();
    iv.sort_unstable();
    let (mut total, mut end) = (0, 0);
    for (a, b) in iv {
        let a = a.max(end);
        if b > a {
            total += b - a;
            end = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
        assert_eq!(covered(std::iter::empty()), 0);
    }
}
