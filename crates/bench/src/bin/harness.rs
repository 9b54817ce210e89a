//! Experiment harness: regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ompi-bench --bin harness -- <experiment>...
//! cargo run --release -p ompi-bench --bin harness -- all
//! cargo run --release -p ompi-bench --bin harness -- fig10a --csv
//! cargo run --release -p ompi-bench --bin harness -- --emit-metrics --trace-out trace.json
//! ```
//!
//! `--emit-metrics` runs an instrumented 4-rank ping-pong after any selected
//! experiments and prints the telemetry snapshot (per-endpoint counters,
//! latency histograms, PTL traffic, simulator profile) as JSON on stdout.
//! `--trace-out FILE` additionally writes the per-rank Chrome trace-event
//! timeline, loadable in `chrome://tracing` or Perfetto.
//! `--introspect-out FILE` arms the progress watchdog, runs the same
//! instrumented ping-pong with the introspection plane active, and writes
//! the cluster-wide pvar aggregation (min/max/sum per variable, straggler
//! rank, stall diagnostics) as JSON; `--watchdog N` tunes the scan interval
//! in progress ticks (default 64). With `--emit-metrics` too, both documents
//! come from the same run, so their totals agree exactly.
//! `--loss N` switches the instrumented run to a TCP-only rendezvous
//! ping-pong with N FIN_ACK control frames dropped off the wire: the
//! emitted metrics then show the reliability layer absorbing the loss
//! (`retransmits` == N, `gave_up` == 0) with the run completing normally.
//! `--reg-bench` runs the repeated-buffer rendezvous benchmark with the
//! registration cache off and on, prints the before/after JSON, and exits
//! nonzero unless the cached run is strictly faster with nonzero hits;
//! `--bench-out FILE` writes the same JSON to a file.
//! `--bw-curve` measures streaming bandwidth across message sizes three
//! ways — Open MPI with the chunked-RDMA pipeline, Open MPI forced onto
//! the monolithic single-RDMA path, and MPICH-QsNet — with the
//! registration cache off, prints the curve JSON (with the ompi-vs-mpich
//! crossover size for both series), and exits nonzero unless the pipelined
//! series is strictly faster at 256 KiB and 1 MiB; `--bench-out FILE`
//! writes the same JSON to a file.
//! `--congestion-report` runs an 8-rank incast and prints the fabric's
//! per-link congestion report (top-N hottest links, occupancy fraction,
//! per-stage utilization) plus the `fab.*` pvar aggregation, naming the
//! victim's ejection link; exits nonzero if the link table comes up empty.
//! `--metrics-out FILE` writes the telemetry / congestion JSON documents
//! produced this run to a file.
//! `--sim-bench` times the discrete-event kernel itself on a reference
//! ping-pong and prints its self-profile (events executed, events/s wall
//! clock) as JSON; `--bench-out FILE` writes the same JSON to a file.
//! `--coll-curve` sweeps barrier / bcast / allreduce latency at 64, 256,
//! and 1024 ranks, host-driven vs NIC-offloaded (the chained event
//! programs behind `coll.nic_offload`), prints the curve JSON, and exits
//! nonzero unless the offloaded path strictly beats the host path for
//! every collective at 256 and 1024 ranks; `--bench-out FILE` writes the
//! same JSON (the CI artifact `BENCH_coll.json`).
//! `--sweep-floor N` makes `--rank-sweep` also fail if any point falls
//! below N simulator events/s of wall-clock throughput.
//! `--stall-demo` forces a rendezvous stall (dropped FIN_ACK, reliability
//! off), lets the watchdog abort the run, and prints the recovered
//! post-mortem — stall diagnostics plus the flight-recorder dumps frozen
//! at detection; `--flight-out FILE` writes the bundle to a file.
//! `--critpath` runs a 1 MiB pipelined-rendezvous ping-pong, merges both
//! ranks' trace rings by global message id, and prints the critical-path
//! report — each message's latency decomposed into named stages
//! (match-wait, handshake, wire, registration, host gap, fin-wait) that
//! sum to the measured total — plus the per-size-bucket table; exits
//! nonzero unless the stages reconcile within 5% and the merged Chrome
//! trace carries cross-rank flow arrows; `--critpath-out FILE` writes the
//! report JSON.
//! `--flow-bench` runs the end-to-end flow-control benchmark — 8-rank
//! incast, all-to-all burst, and unexpected-message flood, each with
//! credit-based flow control off and on, plus an uncongested 1 KiB
//! ping-pong pricing the credit machinery — and prints the report JSON;
//! exits nonzero unless flow-on beats flow-off on incast completion time,
//! bounds the victim's ejection-queue peak below the flow-off run, and
//! keeps the ping-pong within 5% of the flow-off latency; `--bench-out
//! FILE` writes the same JSON (the CI artifact `BENCH_flow.json`).
//! `--timeline` runs an 8-rank incast with the periodic pvar sampler on
//! and prints every rank's time-series ring; exits nonzero unless the
//! victim's ejection-queue series shows the congestion ramp;
//! `--timeline-out FILE` writes the timeline JSON.
//! `--list-introspect` dumps the full control/performance-variable
//! registry (name, type, default, writability, current value,
//! description) as JSON and exits.

use ompi_bench::{
    apps_scaling, coll_bcast, fig10a, fig10b, fig10c, fig10d, fig7a, fig7b, fig8, fig9, io_scaling,
    multinet, multirail, onesided, overlap, scale, sweep_irq_cost, sweep_rndv_threshold, table1,
    Table,
};

#[allow(clippy::type_complexity)]
const EXPERIMENTS: &[(&str, fn() -> Table)] = &[
    ("fig7a", fig7a as fn() -> Table),
    ("fig7b", fig7b),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table1", table1),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("fig10c", fig10c),
    ("fig10d", fig10d),
    ("multirail", multirail),
    ("multinet", multinet),
    ("coll-bcast", coll_bcast),
    ("onesided", onesided),
    ("apps", apps_scaling),
    ("overlap", overlap),
    ("scale", scale),
    ("io", io_scaling),
    ("sweep-rndv", sweep_rndv_threshold),
    ("sweep-irq", sweep_irq_cost),
];

fn main() {
    let mut csv = false;
    let mut md = false;
    let mut emit_metrics = false;
    let mut trace_out: Option<String> = None;
    let mut introspect_out: Option<String> = None;
    let mut watchdog: u64 = 64;
    let mut loss: u64 = 0;
    let mut reg_bench = false;
    let mut bw_curve = false;
    let mut flow_bench_flag = false;
    let mut bench_out: Option<String> = None;
    let mut congestion_report = false;
    let mut metrics_out: Option<String> = None;
    let mut sim_bench_flag = false;
    let mut sim_floor: f64 = 0.0;
    let mut rank_sweep_flag = false;
    let mut sweep_budget_ms: u64 = 60_000;
    let mut sweep_floor: f64 = 0.0;
    let mut coll_curve_flag = false;
    let mut stall_demo = false;
    let mut flight_out: Option<String> = None;
    let mut critpath = false;
    let mut critpath_out: Option<String> = None;
    let mut timeline_flag = false;
    let mut timeline_out: Option<String> = None;
    let mut list_introspect = false;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv" => csv = true,
            "--md" => md = true,
            "--emit-metrics" => emit_metrics = true,
            "--trace-out" => {
                trace_out = args.next();
                if trace_out.is_none() {
                    eprintln!("--trace-out needs a file path");
                    std::process::exit(2);
                }
            }
            "--introspect-out" => {
                introspect_out = args.next();
                if introspect_out.is_none() {
                    eprintln!("--introspect-out needs a file path");
                    std::process::exit(2);
                }
            }
            "--watchdog" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => watchdog = n,
                None => {
                    eprintln!("--watchdog needs an interval in progress ticks");
                    std::process::exit(2);
                }
            },
            "--loss" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => loss = n,
                None => {
                    eprintln!("--loss needs a frame count");
                    std::process::exit(2);
                }
            },
            "--reg-bench" => reg_bench = true,
            "--bw-curve" => bw_curve = true,
            "--flow-bench" => flow_bench_flag = true,
            "--congestion-report" => congestion_report = true,
            "--sim-bench" => sim_bench_flag = true,
            "--sim-floor" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => sim_floor = n,
                None => {
                    eprintln!("--sim-floor needs an events/s number");
                    std::process::exit(2);
                }
            },
            "--rank-sweep" => rank_sweep_flag = true,
            "--sweep-floor" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => sweep_floor = n,
                None => {
                    eprintln!("--sweep-floor needs an events/s number");
                    std::process::exit(2);
                }
            },
            "--coll-curve" => coll_curve_flag = true,
            "--sweep-budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => sweep_budget_ms = n,
                None => {
                    eprintln!("--sweep-budget-ms needs a millisecond count");
                    std::process::exit(2);
                }
            },
            "--stall-demo" => stall_demo = true,
            "--critpath" => critpath = true,
            "--timeline" => timeline_flag = true,
            "--list-introspect" => list_introspect = true,
            "--critpath-out" => {
                critpath_out = args.next();
                if critpath_out.is_none() {
                    eprintln!("--critpath-out needs a file path");
                    std::process::exit(2);
                }
            }
            "--timeline-out" => {
                timeline_out = args.next();
                if timeline_out.is_none() {
                    eprintln!("--timeline-out needs a file path");
                    std::process::exit(2);
                }
            }
            "--metrics-out" => {
                metrics_out = args.next();
                if metrics_out.is_none() {
                    eprintln!("--metrics-out needs a file path");
                    std::process::exit(2);
                }
            }
            "--flight-out" => {
                flight_out = args.next();
                if flight_out.is_none() {
                    eprintln!("--flight-out needs a file path");
                    std::process::exit(2);
                }
            }
            "--bench-out" => {
                bench_out = args.next();
                if bench_out.is_none() {
                    eprintln!("--bench-out needs a file path");
                    std::process::exit(2);
                }
            }
            _ if a.starts_with("--") => {
                eprintln!("unknown flag `{a}`");
                std::process::exit(2);
            }
            _ => selected.push(a),
        }
    }
    let selected: Vec<&str> = selected.iter().map(|s| s.as_str()).collect();

    if selected.is_empty()
        && !emit_metrics
        && introspect_out.is_none()
        && !reg_bench
        && !bw_curve
        && !flow_bench_flag
        && !congestion_report
        && !sim_bench_flag
        && !rank_sweep_flag
        && !coll_curve_flag
        && !stall_demo
        && !critpath
        && !timeline_flag
        && !list_introspect
    {
        eprintln!(
            "usage: harness [--csv|--md] [--emit-metrics] [--trace-out FILE] \
             [--introspect-out FILE] [--watchdog N] [--loss N] \
             [--reg-bench] [--bw-curve] [--flow-bench] [--bench-out FILE] \
             [--congestion-report] [--metrics-out FILE] \
             [--sim-bench] [--sim-floor EVENTS_PER_SEC] \
             [--rank-sweep] [--sweep-budget-ms N] [--sweep-floor EVENTS_PER_SEC] \
             [--coll-curve] \
             [--stall-demo] [--flight-out FILE] \
             [--critpath] [--critpath-out FILE] \
             [--timeline] [--timeline-out FILE] [--list-introspect] \
             <experiment>... | all | paper | compare"
        );
        eprintln!("experiments:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }

    if selected == ["compare"] {
        let anchors = ompi_bench::compare::anchors();
        print!("{}", ompi_bench::compare::render(&anchors));
        return;
    }

    let run_list: Vec<&str> = if selected == ["all"] {
        EXPERIMENTS.iter().map(|(n, _)| *n).collect()
    } else if selected == ["paper"] {
        // Only the experiments that appear in the paper's evaluation.
        vec![
            "fig7a", "fig7b", "fig8", "fig9", "table1", "fig10a", "fig10b", "fig10c", "fig10d",
        ]
    } else {
        selected
    };

    for name in run_list {
        let Some((_, f)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
            eprintln!("unknown experiment `{name}`");
            std::process::exit(2);
        };
        let start = std::time::Instant::now();
        let table = f();
        if csv {
            println!("# {}", table.title);
            print!("{}", table.to_csv());
        } else if md {
            println!("### {}", table.title);
            print!("{}", table.to_markdown());
        } else {
            table.print();
        }
        eprintln!("[{name} regenerated in {:.1?} wall time]", start.elapsed());
    }

    // Documents destined for `--metrics-out`, keyed by section name.
    let mut metrics_docs: Vec<(&str, String)> = Vec::new();

    if emit_metrics || introspect_out.is_some() {
        use ompi_bench::measure::{
            introspect_pingpong, reliability_pingpong, telemetry_pingpong, Setup,
        };
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // 4 ranks, 16 KiB messages: well past the eager limit, so the
        // rendezvous histograms and RDMA counters all light up.
        let setup = Setup::paper(StackConfig::default());
        let telemetry = match introspect_out {
            Some(path) => {
                // One run feeds both documents, so pvar and metric totals
                // agree exactly.
                let (telemetry, introspect) = introspect_pingpong(&setup, 4, 16 << 10, 8, watchdog);
                std::fs::write(&path, introspect.to_json())
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                eprintln!(
                    "[introspection written to {path}: {} stalls, straggler {:?}]",
                    introspect.stalls, introspect.cluster.straggler
                );
                telemetry
            }
            None if loss > 0 => {
                let telemetry = reliability_pingpong(&setup, 64 << 10, loss);
                let healed: u64 = telemetry
                    .per_rank
                    .iter()
                    .map(|m| m.counters.retransmits)
                    .sum();
                eprintln!(
                    "[reliability demo: {loss} FIN_ACK frame(s) dropped, \
                     {healed} retransmission(s) healed the loss]"
                );
                telemetry
            }
            None => telemetry_pingpong(&setup, 4, 16 << 10, 8),
        };
        // A non-zero drop count means the timeline is missing its oldest
        // events — surfaced loudly instead of silently truncating.
        for (rank, log) in &telemetry.traces {
            if log.dropped() > 0 {
                eprintln!(
                    "[warning: rank {rank} trace ring dropped {} event(s); \
                     raise telemetry.trace_capacity for a complete timeline]",
                    log.dropped()
                );
            }
        }
        let json = telemetry.to_json();
        if emit_metrics {
            println!("{json}");
        }
        metrics_docs.push(("telemetry", json));
        if let Some(path) = trace_out {
            std::fs::write(&path, telemetry.chrome_trace())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[chrome trace written to {path}]");
        }
        eprintln!("[telemetry captured in {:.1?} wall time]", start.elapsed());
    }

    if congestion_report {
        use ompi_bench::measure::{incast_congestion, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // 8 ranks on the default QS-8A fat tree: ranks 1..8 flood rank 0
        // with eager-sized messages, so every sender's traffic funnels into
        // one ejection link — the congestion the report must name.
        let capture = incast_congestion(&Setup::paper(StackConfig::default()), 8, 1 << 10, 32, 16);
        print!("{}", capture.congestion.render());
        let json = capture.to_json();
        println!("{json}");
        eprintln!(
            "[congestion: hot rank {} via link {}, {} active link(s), \
             in {:.1?} wall time]",
            capture.hot_rank,
            capture.hot_link().unwrap_or_else(|| "none".to_string()),
            capture.congestion.links_active,
            start.elapsed()
        );
        metrics_docs.push(("congestion", json));
        if capture.congestion.links.is_empty() {
            eprintln!("congestion-report FAILED: empty link table");
            std::process::exit(1);
        }
    }

    if sim_bench_flag {
        use ompi_bench::measure::{sim_bench, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // Fixed reference workload: the event count is deterministic, so
        // events/s tracks only the kernel's wall-clock speed.
        let report = sim_bench(&Setup::paper(StackConfig::default()), 8, 16 << 10, 16);
        let json = report.to_json();
        println!("{json}");
        if let Some(path) = &bench_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[simulator profile written to {path}]");
        }
        eprintln!(
            "[sim-bench: {} events ({} calls, {} wakes of which {} in place, \
             {} stale) at {:.0} events/s, determinism {}, in {:.1?} wall time]",
            report.report.events_processed,
            report.report.calls_executed,
            report.report.wakes_executed,
            report.report.wakes_in_place,
            report.report.stale_wakes,
            report.report.events_per_sec(),
            if report.determinism_ok {
                "ok"
            } else {
                "BROKEN"
            },
            start.elapsed()
        );
        if report.report.events_processed == 0 || report.report.wall_ns == 0 {
            eprintln!("sim-bench FAILED: kernel profile came up empty");
            std::process::exit(1);
        }
        if !report.determinism_ok {
            eprintln!(
                "sim-bench FAILED: schedule fingerprints diverged across \
                 repeat runs / queue implementations"
            );
            std::process::exit(1);
        }
        if sim_floor > 0.0 && report.report.events_per_sec() < sim_floor {
            eprintln!(
                "sim-bench FAILED: {:.0} events/s is below the floor of {:.0}",
                report.report.events_per_sec(),
                sim_floor
            );
            std::process::exit(1);
        }
    }

    if rank_sweep_flag {
        use ompi_bench::measure::{rank_sweep, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // Scaling sweep up to a 1024-rank collective: 4 barrier rounds per
        // world size, the whole sweep budgeted in wall clock.
        let report = rank_sweep(
            &Setup::paper(StackConfig::default()),
            &[64, 256, 1024],
            4,
            sweep_budget_ms,
        );
        let json = report.to_json();
        println!("{json}");
        if let Some(path) = &bench_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[rank sweep written to {path}]");
        }
        for p in &report.points {
            eprintln!(
                "[rank-sweep: {} ranks, {} events in {:.1} ms wall \
                 ({:.0} events/s); init {:.1} ms wall / {} us virtual, \
                 work {:.1} ms wall / {} us virtual]",
                p.ranks,
                p.report.events_processed,
                p.report.wall_ns as f64 / 1e6,
                p.report.events_per_sec(),
                p.init_ms,
                p.init_ns / 1_000,
                p.work_ms,
                p.work_ns() / 1_000
            );
        }
        eprintln!(
            "[rank-sweep: total {:.1} ms against a {} ms budget, in {:.1?}]",
            report.total_wall_ms,
            report.budget_ms,
            start.elapsed()
        );
        if report.points.iter().any(|p| p.report.events_processed == 0) {
            eprintln!("rank-sweep FAILED: a point came up empty");
            std::process::exit(1);
        }
        if !report.within_budget() {
            eprintln!(
                "rank-sweep FAILED: {:.1} ms exceeds the {} ms wall budget",
                report.total_wall_ms, report.budget_ms
            );
            std::process::exit(1);
        }
        if sweep_floor > 0.0 {
            // Per-point throughput floor: the 1024-rank point is the
            // binding one — smaller worlds only run faster.
            let mut failed = false;
            for p in &report.points {
                if p.report.events_per_sec() < sweep_floor {
                    eprintln!(
                        "rank-sweep FAILED: {} ranks ran at {:.0} events/s, \
                         below the floor of {:.0}",
                        p.ranks,
                        p.report.events_per_sec(),
                        sweep_floor
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
    }

    if coll_curve_flag {
        use ompi_bench::measure::{coll_curve, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // Barrier / bcast / allreduce at growing world sizes, 512-byte
        // payloads (inside the NIC event-program ceiling), each timed
        // host-driven and NIC-offloaded on an identical fabric.
        let report = coll_curve(
            &Setup::paper(StackConfig::default()),
            &[64, 256, 1024],
            512,
            8,
        );
        let json = report.to_json();
        println!("{json}");
        if let Some(path) = &bench_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[collective curve written to {path}]");
        }
        for p in &report.points {
            eprintln!(
                "[coll-curve: {} ranks {:>9}: host {:.1}us, nic {:.1}us ({:.2}x)]",
                p.ranks,
                p.coll,
                p.host_us,
                p.nic_us,
                p.speedup()
            );
        }
        eprintln!(
            "[coll-curve: 18 cells in {:.1?} wall time]",
            start.elapsed()
        );
        // The gate: once the tree is deep enough that host wakeups dominate
        // — 256 ranks and up — the NIC-resident program must win outright
        // for every collective.
        let mut failed = false;
        for ranks in [256usize, 1024] {
            for coll in ["barrier", "bcast", "allreduce"] {
                let p = report
                    .point(ranks, coll)
                    .expect("gate cells are on the measured grid");
                if p.nic_us >= p.host_us {
                    eprintln!(
                        "coll-curve FAILED: NIC-offloaded {coll} ({:.1}us) not \
                         faster than host-driven ({:.1}us) at {ranks} ranks",
                        p.nic_us, p.host_us
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    if stall_demo {
        use ompi_bench::measure::stall_flight_demo;
        let start = std::time::Instant::now();
        eprintln!(
            "[stall-demo: forcing a rendezvous stall — the panic below is \
             the watchdog firing, not a harness bug]"
        );
        let demo = stall_flight_demo();
        let json = demo.to_json();
        println!("{json}");
        if let Some(path) = &flight_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[flight-recorder post-mortem written to {path}]");
        }
        eprintln!(
            "[stall-demo: {} diagnostic(s), {} flight dump(s), in {:.1?} wall time]",
            demo.diagnostics.len(),
            demo.flight_dumps.len(),
            start.elapsed()
        );
        if demo.flight_dumps.is_empty() {
            eprintln!("stall-demo FAILED: no flight-recorder dump produced");
            std::process::exit(1);
        }
    }

    if critpath {
        use ompi_bench::measure::{critpath_pingpong, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // 1 MiB messages: past the pipeline floor, so each send runs the
        // full chunked rendezvous whose stages the report decomposes.
        let capture = critpath_pingpong(&Setup::paper(StackConfig::default()), 1 << 20, 4);
        print!("{}", capture.report.render());
        let json = capture.to_json();
        println!("{json}");
        if let Some(path) = &critpath_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[critical-path report written to {path}]");
        }
        metrics_docs.push(("critpath", json));
        eprintln!(
            "[critpath: {} message(s) decomposed across {} size bucket(s), \
             in {:.1?} wall time]",
            capture.report.msgs.len(),
            capture.report.buckets.len(),
            start.elapsed()
        );
        // The gates: a 1 MiB rendezvous must decompose into at least four
        // named stages that reconcile with the measured total, and the
        // merged Chrome trace must link the two ranks with flow arrows.
        let mut failed = false;
        let big: Vec<_> = capture
            .report
            .msgs
            .iter()
            .filter(|m| !m.eager && m.len == 1 << 20)
            .collect();
        if big.is_empty() {
            eprintln!("critpath FAILED: no 1 MiB rendezvous message in the report");
            failed = true;
        }
        for m in &big {
            let nonzero = m.stages.iter().filter(|(_, ns)| *ns > 0).count();
            if nonzero < 4 {
                eprintln!(
                    "critpath FAILED: gid {:#x} decomposed into only {nonzero} \
                     nonzero stage(s): {:?}",
                    m.gid, m.stages
                );
                failed = true;
            }
            let sum = m.stage_sum_ns();
            if (sum.abs_diff(m.total_ns)) * 20 > m.total_ns {
                eprintln!(
                    "critpath FAILED: gid {:#x} stages sum to {sum}ns, \
                     total is {}ns (off by more than 5%)",
                    m.gid, m.total_ns
                );
                failed = true;
            }
        }
        let chrome = capture.chrome_trace();
        if !chrome.contains("\"ph\":\"s\"") || !chrome.contains("\"ph\":\"f\"") {
            eprintln!("critpath FAILED: merged Chrome trace has no cross-rank flow events");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }

    if timeline_flag {
        use ompi_bench::measure::{timeline_incast, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // 8 ranks, eager-sized messages: the senders flood without waiting
        // for a handshake, so every packet converges on rank 0's ejection
        // link at once and the periodic sampler sees its queue depth ramp
        // while the incast is in full swing.
        let capture = timeline_incast(&Setup::paper(StackConfig::default()), 8, 1 << 10, 32);
        let json = capture.to_json();
        println!("{json}");
        if let Some(path) = &timeline_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[timeline written to {path}]");
        }
        metrics_docs.push(("timeline", json));
        let victim = capture.victim_samples();
        eprintln!(
            "[timeline: {} sample(s) on the victim, peak ej queue {}, \
             in {:.1?} wall time]",
            victim.len(),
            capture.victim_max_ej_queue(),
            start.elapsed()
        );
        if victim.is_empty() {
            eprintln!("timeline FAILED: sampler produced no samples on the victim");
            std::process::exit(1);
        }
        if capture.victim_max_ej_queue() < 2 {
            eprintln!(
                "timeline FAILED: victim ejection queue never exceeded 1 \
                 (no congestion ramp visible)"
            );
            std::process::exit(1);
        }
    }

    if list_introspect {
        use ompi_bench::measure::{introspect_registry, Setup};
        use openmpi_core::StackConfig;
        // A 1-rank world is enough: the registry is per-endpoint and the
        // values reported are the live ones after config application.
        let json = introspect_registry(&Setup::paper(StackConfig::default()));
        println!("{json}");
        if !json.contains("\"cvars\":[{") || !json.contains("\"pvars\":[{") {
            eprintln!("list-introspect FAILED: registry dump came up empty");
            std::process::exit(1);
        }
    }

    if bw_curve {
        use ompi_bench::measure::{bw_curve, Setup};
        use openmpi_core::{StackConfig, Transports};
        let start = std::time::Instant::now();
        // Rendezvous-sized messages from just below the pipeline floor up
        // to multi-megabyte streams. Window 1: each message's registration
        // sits on the critical path, which is what the pipeline attacks.
        // Two rails: Open MPI stripes across both (pipelined chunks
        // round-robin, the monolithic path splits per-rail) while the
        // MPICH-QsNet Tport rides one rail, so the Open MPI series
        // overtake the baseline once striping outweighs their per-message
        // registration cost — the crossover the curve reports.
        let sizes: &[usize] = &[
            16 << 10,
            32 << 10,
            64 << 10,
            128 << 10,
            256 << 10,
            512 << 10,
            1 << 20,
            2 << 20,
            4 << 20,
        ];
        let setup = Setup {
            nic: elan4::NicConfig::default(),
            fabric: qsnet::FabricConfig {
                rails: 2,
                ..Default::default()
            },
            stack: StackConfig::default(),
            transports: Transports {
                elan_rails: 2,
                tcp: false,
            },
        };
        let report = bw_curve(&setup, sizes, 1, 8);
        let json = report.to_json();
        println!("{json}");
        if let Some(path) = &bench_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[bandwidth curve written to {path}]");
        }
        eprintln!(
            "[bw-curve: crossover vs mpich at {:?} pipelined / {:?} monolithic, \
             in {:.1?} wall time]",
            report.crossover(true),
            report.crossover(false),
            start.elapsed()
        );
        // The gate: with registration charged, chunking must win once the
        // map cost is large enough to hide — 256 KiB and up.
        let mut failed = false;
        for gate_len in [256 << 10, 1 << 20] {
            let p = report
                .point(gate_len)
                .expect("gate sizes are on the measured grid");
            if p.pipelined <= p.monolithic {
                eprintln!(
                    "bw-curve FAILED: pipelined ({:.1} MB/s) not faster than \
                     monolithic ({:.1} MB/s) at {} bytes",
                    p.pipelined, p.monolithic, p.len
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    if flow_bench_flag {
        use ompi_bench::measure::{flow_bench, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // Three congestion scenarios with flow control off and on, plus the
        // uncongested ping-pong pricing the credit machinery's overhead.
        let report = flow_bench(&Setup::paper(StackConfig::default()));
        let json = report.to_json();
        println!("{json}");
        if let Some(path) = &bench_out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[flow benchmark written to {path}]");
        }
        eprintln!(
            "[flow-bench: incast {:.0}us (off) vs {:.0}us (on), victim ej peak \
             {} -> {}, pool fallbacks {} -> {}, pingpong ratio {:.3}, \
             in {:.1?} wall time]",
            report.incast.0.completion_ns as f64 / 1_000.0,
            report.incast.1.completion_ns as f64 / 1_000.0,
            report.incast.0.victim_ej_queue_peak,
            report.incast.1.victim_ej_queue_peak,
            report.incast.0.pool_fallbacks,
            report.incast.1.pool_fallbacks,
            report.pingpong_ratio(),
            start.elapsed()
        );
        // The gates: flow-on must pay for itself under congestion and cost
        // nothing measurable without it.
        let mut failed = false;
        if report.incast.1.completion_ns >= report.incast.0.completion_ns {
            eprintln!(
                "flow-bench FAILED: flow-on incast ({}ns) not faster than \
                 flow-off ({}ns)",
                report.incast.1.completion_ns, report.incast.0.completion_ns
            );
            failed = true;
        }
        if report.incast.1.victim_ej_queue_peak >= report.incast.0.victim_ej_queue_peak {
            eprintln!(
                "flow-bench FAILED: flow-on victim ejection peak ({}) not below \
                 flow-off ({})",
                report.incast.1.victim_ej_queue_peak, report.incast.0.victim_ej_queue_peak
            );
            failed = true;
        }
        if report.pingpong_ratio() > 1.05 {
            eprintln!(
                "flow-bench FAILED: flow-on ping-pong ({:.3}us) regresses \
                 flow-off ({:.3}us) by more than 5%",
                report.pingpong_on_us, report.pingpong_off_us
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }

    if reg_bench {
        use ompi_bench::measure::{reg_cache_compare, Setup};
        use openmpi_core::StackConfig;
        let start = std::time::Instant::now();
        // 64 KiB messages, well past the eager limit, reusing the same
        // buffers every round — the workload the pin-down cache targets.
        let report = reg_cache_compare(&Setup::paper(StackConfig::default()), 64 << 10, 16);
        let json = report.to_json();
        println!("{json}");
        if let Some(path) = bench_out {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("[registration benchmark written to {path}]");
        }
        eprintln!(
            "[reg-bench: {:.3}us (cache off) vs {:.3}us (cache on), {:.2}x, \
             {} hits, in {:.1?} wall time]",
            report.off.latency_us,
            report.on.latency_us,
            report.speedup(),
            report.on.stats.hits,
            start.elapsed()
        );
        if report.on.latency_us >= report.off.latency_us {
            eprintln!("reg-bench FAILED: cache-on latency is not strictly lower");
            std::process::exit(1);
        }
        if report.on.stats.hits == 0 {
            eprintln!("reg-bench FAILED: cache reported zero hits");
            std::process::exit(1);
        }
    }

    if let Some(path) = metrics_out {
        let body: Vec<String> = metrics_docs
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        std::fs::write(&path, format!("{{{}}}", body.join(",")))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!(
            "[{} metrics section(s) written to {path}]",
            metrics_docs.len()
        );
    }
}
