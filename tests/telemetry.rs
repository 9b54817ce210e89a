//! End-to-end telemetry: counters flip with the protocol threshold,
//! histograms fill during real traffic, the trace ring stays bounded, and
//! the Chrome trace export is well-formed with per-rank monotone time.

use std::rc::Rc;

use openmpi_core::{chrome_trace_json, Metrics, Placement, StackConfig, TraceLog, Universe};
use qsim::Local;

/// Two-rank ping-pong of `iters` round trips of `len`-byte messages under
/// `cfg`; returns each rank's metrics and trace ring plus the sim report.
fn pingpong(
    cfg: StackConfig,
    len: usize,
    iters: usize,
) -> (Vec<Metrics>, Vec<TraceLog>, qsim::Report) {
    let rows: Rc<Local<Vec<(u32, Metrics, TraceLog)>>> = Rc::new(Local::new(Vec::new()));
    let r2 = rows.clone();
    let report = Universe::paper_testbed(cfg).run_world(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let sbuf = mpi.alloc(len.max(1));
        let rbuf = mpi.alloc(len.max(1));
        for _ in 0..iters {
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, &sbuf, len);
                mpi.recv(&w, 1, 0, &rbuf, len);
            } else {
                mpi.recv(&w, 0, 0, &rbuf, len);
                mpi.send(&w, 0, 0, &sbuf, len);
            }
        }
        let ep = mpi.endpoint();
        r2.lock().push((
            mpi.rank() as u32,
            ep.metrics_snapshot(),
            ep.trace.lock().clone(),
        ));
    });
    let mut rows = std::mem::take(&mut *rows.lock());
    rows.sort_by_key(|(r, ..)| *r);
    let metrics = rows.iter().map(|(_, m, _)| m.clone()).collect();
    let traces = rows.into_iter().map(|(_, _, t)| t).collect();
    (metrics, traces, report)
}

fn telemetry_cfg() -> StackConfig {
    StackConfig {
        metrics: true,
        trace: true,
        ..StackConfig::default()
    }
}

#[test]
fn eager_vs_rendezvous_counters_flip_across_threshold() {
    let cfg = telemetry_cfg();
    let small = cfg.eager_limit; // right at the limit: still eager
    let large = cfg.eager_limit + 1;

    let (m, _, _) = pingpong(cfg.clone(), small, 5);
    for (rank, m) in m.iter().enumerate() {
        assert_eq!(m.counters.eager_sent, 5, "rank {rank} eager sends");
        assert_eq!(m.counters.rndv_sent, 0, "rank {rank} below threshold");
        assert_eq!(m.counters.rdma_descriptors, 0, "eager path never RDMAs");
    }

    let (m, _, _) = pingpong(cfg, large, 5);
    for (rank, m) in m.iter().enumerate() {
        assert_eq!(m.counters.eager_sent, 0, "rank {rank} above threshold");
        assert_eq!(m.counters.rndv_sent, 5, "rank {rank} rendezvous sends");
        assert!(m.counters.rdma_descriptors > 0, "rank {rank} issued RDMA");
        assert!(
            m.counters.rdma_bytes >= 5 * large as u64,
            "rank {rank} RDMA bytes"
        );
    }
}

#[test]
fn histograms_fill_during_pingpong() {
    let cfg = telemetry_cfg();
    let large = cfg.eager_limit + 1;
    let (m, _, _) = pingpong(cfg, large, 6);
    for (rank, m) in m.iter().enumerate() {
        // Every request completes, and completion time is recorded for each:
        // sends (eager + rendezvous) plus every posted receive.
        let expect = m.counters.eager_sent + m.counters.rndv_sent + m.counters.recvs_posted;
        assert_eq!(
            m.completion_time.count(),
            expect,
            "rank {rank} completion samples"
        );
        assert_eq!(
            m.match_time.count(),
            m.counters.matches,
            "rank {rank} match samples"
        );
        assert_eq!(
            m.rndv_handshake.count(),
            m.counters.rndv_sent,
            "rank {rank} one handshake per rendezvous send"
        );
        assert!(
            m.completion_time.sum_ns() > 0,
            "rank {rank} nonzero latency"
        );
        assert!(m.completion_time.mean_ns().unwrap() > 0.0);
        assert!(
            m.rndv_handshake.min_ns().unwrap() > 0,
            "handshake takes time"
        );
        // The JSON snapshot carries the same totals.
        let json = m.to_json();
        assert!(
            json.contains(&format!("\"count\":{expect}")),
            "rank {rank} json"
        );
    }
}

#[test]
fn metrics_off_means_all_zero() {
    let (m, traces, _) = pingpong(StackConfig::default(), 4096, 4);
    for (rank, m) in m.iter().enumerate() {
        assert_eq!(m.counters.eager_sent, 0, "rank {rank} gated off");
        assert_eq!(m.counters.rndv_sent, 0);
        assert_eq!(m.counters.progress_iterations, 0);
        assert_eq!(m.completion_time.count(), 0);
        assert_eq!(m.match_time.count(), 0);
    }
    for t in &traces {
        assert!(t.is_empty(), "tracing off records nothing");
    }
}

#[test]
fn trace_ring_stays_bounded_and_counts_drops() {
    let mut cfg = telemetry_cfg();
    cfg.trace_capacity = 16;
    let (_, traces, _) = pingpong(cfg, 4096, 20);
    for (rank, t) in traces.iter().enumerate() {
        assert!(t.len() <= 16, "rank {rank} ring bounded");
        assert!(t.dropped() > 0, "rank {rank} long run must evict");
        assert_eq!(t.capacity(), 16);
    }
}

#[test]
fn sim_report_profiles_the_run() {
    let (_, _, report) = pingpong(telemetry_cfg(), 8192, 4);
    assert!(report.events_processed > 0);
    assert!(report.max_queue_depth > 0);
    assert!(report.end_time.as_ns() > 0);
    assert_eq!(report.procs_spawned, 2);
}

/// Minimal JSON syntax checker (handles backslash escapes inside strings).
fn check_json(s: &str) {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        let i = skip_ws(b, i);
        match b.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Ok(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return Ok(i + 1),
                        _ => return Err(format!("bad object at {i}")),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Ok(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return Ok(i + 1),
                        _ => return Err(format!("bad array at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') if b[i..].starts_with(b"true") => Ok(i + 4),
            Some(b'f') if b[i..].starts_with(b"false") => Ok(i + 5),
            Some(b'n') if b[i..].starts_with(b"null") => Ok(i + 4),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut i = i + 1;
                while i < b.len()
                    && (b[i].is_ascii_digit() || matches!(b[i], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    i += 1;
                }
                Ok(i)
            }
            _ => Err(format!("bad value at {i}")),
        }
    }
    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected string at {i}"));
        }
        let mut i = i + 1;
        while i < b.len() && b[i] != b'"' {
            if b[i] == b'\\' {
                i += 1;
            }
            i += 1;
        }
        if i < b.len() {
            Ok(i + 1)
        } else {
            Err("unterminated string".into())
        }
    }
    let b = s.as_bytes();
    let end = value(b, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    assert_eq!(skip_ws(b, end), b.len(), "trailing garbage after JSON");
}

/// The `trace.json` document `harness gate telemetry` writes must parse as
/// JSON when read back — including every escape the exporter emits.
#[test]
fn chrome_trace_file_round_trips_as_valid_json() {
    let (_, traces, _) = pingpong(telemetry_cfg(), 16384, 3);
    let logs: Vec<(u32, &TraceLog)> = traces
        .iter()
        .enumerate()
        .map(|(r, t)| (r as u32, t))
        .collect();
    let path = std::env::temp_dir().join(format!("ompi-trace-{}.json", std::process::id()));
    std::fs::write(&path, chrome_trace_json(&logs)).unwrap();
    let back = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    check_json(&back);
    assert!(back.contains("\"traceEvents\""));
    assert!(back.contains("\"pid\":"), "per-rank process ids");
}

#[test]
fn chrome_export_is_valid_json_with_monotone_per_rank_time() {
    let (_, traces, _) = pingpong(telemetry_cfg(), 16384, 5);
    let logs: Vec<(u32, &TraceLog)> = traces
        .iter()
        .enumerate()
        .map(|(r, t)| (r as u32, t))
        .collect();
    let json = chrome_trace_json(&logs);
    check_json(&json);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"b\""), "spans open");
    assert!(json.contains("\"ph\":\"e\""), "spans close");

    // Each rank's timeline must be non-decreasing, and every span that
    // begins must end at or after its begin.
    for (rank, t) in traces.iter().enumerate() {
        let mut last = 0u64;
        let mut open = qsim::FastMap::default();
        for (time, ev) in t.iter() {
            let ns = time.as_ns();
            assert!(ns >= last, "rank {rank} time went backwards");
            last = ns;
            match ev {
                openmpi_core::TraceEvent::SpanBegin { id, cat, .. } => {
                    open.insert((*cat, *id), ns);
                }
                openmpi_core::TraceEvent::SpanEnd { id, cat, .. } => {
                    let begin = open
                        .remove(&(*cat, *id))
                        .unwrap_or_else(|| panic!("rank {rank} span {cat}/{id} ends unopened"));
                    assert!(ns >= begin, "rank {rank} span {cat}/{id} negative length");
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "rank {rank} spans left open: {open:?}");
    }
}
