//! The gated scenarios behind `harness gate`: one table row per scenario.
//!
//! A row is a name and a plain function. The function runs its workload
//! with its own constants, renders the documents it produces, and checks
//! its own pass conditions. [`run`] executes rows in order, writes every
//! row's documents into one directory, and keeps going past a failing row,
//! so one invocation reports every failure at once.

use std::path::Path;
use std::time::Instant;

use openmpi_core::{Counters, CvarValue, StackConfig, Transports, CVARS};

use crate::measure::{self, Setup};
use crate::{compare, EXPERIMENTS};

/// What one gated scenario produced.
pub struct Outcome {
    /// Documents to write under the out-dir, as `(file name, contents)`.
    pub docs: Vec<(&'static str, String)>,
    /// One human-readable line summarising the run.
    pub summary: String,
    /// Every pass condition that did not hold; empty when the row passes.
    pub failures: Vec<String>,
}

/// One gated scenario: its name and the function that runs it.
pub type Row = (&'static str, fn() -> Outcome);

/// Every gated scenario, in the order `harness gate` runs them.
pub const ROWS: &[Row] = &[
    ("experiments", experiments),
    ("reg-bench", reg_bench),
    ("bw-curve", bw_curve),
    ("flow-bench", flow_bench),
    ("sim-bench", sim_bench),
    ("rank-sweep", rank_sweep),
    ("coll-curve", coll_curve),
    ("congestion", congestion),
    ("stall-demo", stall_demo),
    ("critpath", critpath),
    ("timeline", timeline),
    ("registry", registry),
    ("telemetry", telemetry),
    ("introspect", introspect),
    ("reliability", reliability),
];

/// Run `rows` in order, write each row's documents under `out_dir` (which
/// must exist), and print one status line per row. Returns every failure,
/// each prefixed with the name of its row.
pub fn run(rows: &[Row], out_dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, row) in rows {
        let start = Instant::now();
        let mut outcome = row();
        let wall = start.elapsed();
        for (file, body) in &outcome.docs {
            let path = out_dir.join(file);
            if let Err(e) = std::fs::write(&path, body) {
                outcome
                    .failures
                    .push(format!("writing {}: {e}", path.display()));
            }
        }
        println!(
            "{name:<12} {} {:>9.1} ms  {}",
            if outcome.failures.is_empty() {
                "PASS"
            } else {
                "FAIL"
            },
            wall.as_secs_f64() * 1e3,
            outcome.summary
        );
        failures.extend(outcome.failures.iter().map(|f| format!("{name}: {f}")));
    }
    failures
}

fn paper() -> Setup {
    Setup::paper(StackConfig::default())
}

/// Where the snapshots the `experiments` and `registry` rows must
/// reproduce byte for byte live.
const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Compare `doc` with the committed `results/{file}`: empty when they are
/// byte-identical, else one failure naming the first line that differs.
fn snapshot_failures(file: &str, doc: &str) -> Vec<String> {
    let path = format!("{RESULTS}/{file}");
    match std::fs::read_to_string(&path) {
        Err(e) => vec![format!("reading {path}: {e}")],
        Ok(want) => first_difference(&want, doc)
            .map(|(line, want, got)| {
                format!(
                    "output differs from results/{file} at line {line}: \
                     snapshot has {want:?}, harness printed {got:?}"
                )
            })
            .into_iter()
            .collect(),
    }
}

/// Every experiment's markdown table, then the paper-vs-measured anchors in
/// a fenced block: the contents of `results/experiments.md`.
fn experiments() -> Outcome {
    let mut doc = String::new();
    for (_, experiment) in EXPERIMENTS {
        let table = experiment();
        doc.push_str(&format!("### {}\n{}", table.title, table.to_markdown()));
    }
    let anchors = compare::anchors();
    doc.push_str("\n### Paper-vs-measured anchors (harness compare)\n```\n");
    doc.push_str(&compare::render(&anchors));
    doc.push_str("```\n");
    let failures = snapshot_failures("experiments.md", &doc);
    Outcome {
        docs: vec![("experiments.md", doc)],
        summary: format!(
            "{} tables and {} anchors against results/experiments.md",
            EXPERIMENTS.len(),
            anchors.len()
        ),
        failures,
    }
}

/// The first line (1-based) at which `got` departs from `want`, with the
/// text of that line on each side (empty past the end of a side).
fn first_difference<'a>(want: &'a str, got: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let (mut w, mut g) = (want.split_inclusive('\n'), got.split_inclusive('\n'));
    let mut line = 1;
    loop {
        match (w.next(), g.next()) {
            (None, None) => return None,
            (a, b) if a != b => return Some((line, a.unwrap_or(""), b.unwrap_or(""))),
            _ => line += 1,
        }
    }
}

fn reg_bench() -> Outcome {
    // 64 KiB messages, well past the eager limit, reusing the same
    // buffers every round — the workload the pin-down cache targets.
    let report = measure::reg_cache_compare(&paper(), 64 << 10, 16);
    let mut failures = Vec::new();
    if report.on.latency_us >= report.off.latency_us {
        failures.push("cache-on latency is not strictly lower".to_string());
    }
    if report.on.stats.hits == 0 {
        failures.push("cache reported zero hits".to_string());
    }
    Outcome {
        summary: format!(
            "{:.3}us (cache off) vs {:.3}us (cache on), {:.2}x, {} hits",
            report.off.latency_us,
            report.on.latency_us,
            report.speedup(),
            report.on.stats.hits
        ),
        docs: vec![("BENCH_regcache.json", report.to_json())],
        failures,
    }
}

fn bw_curve() -> Outcome {
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
    let report = measure::bw_curve(&setup, sizes, 1, 8);
    // With registration charged, chunking must win once the map cost is
    // large enough to hide — 256 KiB and up.
    let mut failures = Vec::new();
    for gate_len in [256 << 10, 1 << 20] {
        let p = report
            .point(gate_len)
            .expect("gate sizes are on the measured grid");
        if p.pipelined <= p.monolithic {
            failures.push(format!(
                "pipelined ({:.1} MB/s) not faster than monolithic ({:.1} MB/s) at {} bytes",
                p.pipelined, p.monolithic, p.len
            ));
        }
    }
    Outcome {
        summary: format!(
            "crossover vs mpich at {:?} pipelined / {:?} monolithic",
            report.crossover(true),
            report.crossover(false)
        ),
        docs: vec![("BENCH_pipeline.json", report.to_json())],
        failures,
    }
}

fn flow_bench() -> Outcome {
    // Three congestion scenarios with flow control off and on, plus the
    // uncongested ping-pong pricing the credit machinery's overhead.
    let report = measure::flow_bench(&paper());
    let (off, on) = &report.incast;
    // Flow-on must pay for itself under congestion and cost nothing
    // measurable without it.
    let mut failures = Vec::new();
    if on.completion_ns >= off.completion_ns {
        failures.push(format!(
            "flow-on incast ({}ns) not faster than flow-off ({}ns)",
            on.completion_ns, off.completion_ns
        ));
    }
    if on.victim_ej_queue_peak >= off.victim_ej_queue_peak {
        failures.push(format!(
            "flow-on victim ejection peak ({}) not below flow-off ({})",
            on.victim_ej_queue_peak, off.victim_ej_queue_peak
        ));
    }
    if report.pingpong_ratio() > 1.05 {
        failures.push(format!(
            "flow-on ping-pong ({:.3}us) regresses flow-off ({:.3}us) by more than 5%",
            report.pingpong_on_us, report.pingpong_off_us
        ));
    }
    Outcome {
        summary: format!(
            "incast {:.0}us (off) vs {:.0}us (on), victim ej peak {} -> {}, \
             pool fallbacks {} -> {}, pingpong ratio {:.3}",
            off.completion_ns as f64 / 1_000.0,
            on.completion_ns as f64 / 1_000.0,
            off.victim_ej_queue_peak,
            on.victim_ej_queue_peak,
            off.pool_fallbacks,
            on.pool_fallbacks,
            report.pingpong_ratio()
        ),
        docs: vec![("BENCH_flow.json", report.to_json())],
        failures,
    }
}

/// 4x the pre-rewrite kernel's 148,370 events/s on the reference workload.
const SIM_FLOOR: f64 = 593_480.0;

fn sim_bench() -> Outcome {
    // Fixed reference workload: the event count is deterministic, so
    // events/s tracks only the kernel's wall-clock speed.
    let bench = measure::sim_bench(&paper(), 8, 16 << 10, 16);
    let r = &bench.report;
    let mut failures = Vec::new();
    if r.events_processed == 0 || r.wall_ns == 0 {
        failures.push("kernel profile came up empty".to_string());
    }
    if !bench.determinism_ok {
        failures.push(
            "schedule fingerprints diverged across repeat runs / queue implementations".to_string(),
        );
    }
    if r.events_per_sec() < SIM_FLOOR {
        failures.push(format!(
            "{:.0} events/s is below the floor of {SIM_FLOOR:.0}",
            r.events_per_sec()
        ));
    }
    Outcome {
        summary: format!(
            "{} events ({} calls, {} wakes of which {} in place, {} stale) \
             at {:.0} events/s, determinism {}",
            r.events_processed,
            r.calls_executed,
            r.wakes_executed,
            r.wakes_in_place,
            r.stale_wakes,
            r.events_per_sec(),
            if bench.determinism_ok { "ok" } else { "BROKEN" }
        ),
        docs: vec![("BENCH_sim.json", bench.to_json())],
        failures,
    }
}

/// Wall-clock budget for the whole rank sweep.
const SWEEP_BUDGET_MS: u64 = 60_000;
/// Per-point throughput floor; the 1024-rank point is the binding one
/// (216,983 events/s when the floor was set), smaller worlds run faster.
const SWEEP_FLOOR: f64 = 150_000.0;

fn rank_sweep() -> Outcome {
    // Scaling sweep up to a 1024-rank collective: 4 barrier rounds per
    // world size, the whole sweep budgeted in wall clock.
    let report = measure::rank_sweep(&paper(), &[64, 256, 1024], 4, SWEEP_BUDGET_MS);
    let mut failures = Vec::new();
    if report.points.iter().any(|p| p.report.events_processed == 0) {
        failures.push("a point came up empty".to_string());
    }
    if !report.within_budget() {
        failures.push(format!(
            "{:.1} ms exceeds the {} ms wall budget",
            report.total_wall_ms, report.budget_ms
        ));
    }
    for p in &report.points {
        if p.report.events_per_sec() < SWEEP_FLOOR {
            failures.push(format!(
                "{} ranks ran at {:.0} events/s, below the floor of {SWEEP_FLOOR:.0}",
                p.ranks,
                p.report.events_per_sec()
            ));
        }
    }
    let points: Vec<String> = report
        .points
        .iter()
        .map(|p| {
            format!(
                "{} ranks {:.1} ms ({:.0} events/s)",
                p.ranks,
                p.report.wall_ns as f64 / 1e6,
                p.report.events_per_sec()
            )
        })
        .collect();
    Outcome {
        summary: format!(
            "{}; total {:.1} ms against a {} ms budget",
            points.join(", "),
            report.total_wall_ms,
            report.budget_ms
        ),
        docs: vec![("BENCH_sweep.json", report.to_json())],
        failures,
    }
}

fn coll_curve() -> Outcome {
    // Barrier / bcast / allreduce at growing world sizes, 512-byte
    // payloads (inside the NIC event-program ceiling), each timed
    // host-driven and NIC-offloaded on an identical fabric.
    let report = measure::coll_curve(&paper(), &[64, 256, 1024], 512, 8);
    // Once the tree is deep enough that host wakeups dominate — 256 ranks
    // and up — the NIC-resident program must win outright for every
    // collective.
    let mut failures = Vec::new();
    for ranks in [256usize, 1024] {
        for coll in ["barrier", "bcast", "allreduce"] {
            let p = report
                .point(ranks, coll)
                .expect("gate cells are on the measured grid");
            if p.nic_us >= p.host_us {
                failures.push(format!(
                    "NIC-offloaded {coll} ({:.1}us) not faster than host-driven \
                     ({:.1}us) at {ranks} ranks",
                    p.nic_us, p.host_us
                ));
            }
        }
    }
    let min_speedup = report
        .points
        .iter()
        .map(|p| p.speedup())
        .fold(f64::INFINITY, f64::min);
    Outcome {
        summary: format!(
            "{} cells, smallest NIC-over-host speedup {min_speedup:.2}x",
            report.points.len()
        ),
        docs: vec![("BENCH_coll.json", report.to_json())],
        failures,
    }
}

fn congestion() -> Outcome {
    // 8 ranks on the default QS-8A fat tree: ranks 1..8 flood rank 0 with
    // eager-sized messages, so every sender's traffic funnels into one
    // ejection link — the congestion the report must name.
    let capture = measure::incast_congestion(&paper(), 8, 1 << 10, 32, 16);
    let mut failures = Vec::new();
    if capture.congestion.links.is_empty() {
        failures.push("empty link table".to_string());
    }
    Outcome {
        summary: format!(
            "hot rank {} via link {}, {} active link(s)",
            capture.hot_rank,
            capture.hot_link().unwrap_or_else(|| "none".to_string()),
            capture.congestion.links_active
        ),
        docs: vec![
            ("congestion.json", capture.to_json()),
            ("congestion.txt", capture.congestion.render()),
        ],
        failures,
    }
}

fn stall_demo() -> Outcome {
    // The watchdog aborts the run with a panic that the demo catches; its
    // message lands in the document, so keep the default hook from also
    // printing it and a backtrace.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let demo = measure::stall_flight_demo(true);
    let unrecorded = measure::stall_flight_demo(false);
    std::panic::set_hook(hook);
    let mut failures = Vec::new();
    if demo.flight_dumps.is_empty() {
        failures.push("no flight-recorder dump produced".to_string());
    }
    // The one stuck request is the send whose FIN_ACK was lost, and its
    // diagnosis reads its own state, so the flight recorder cannot change it.
    if !matches!(demo.stuck.as_slice(), [("send", stage)] if stage.starts_with("fin_wait")) {
        failures.push(format!(
            "expected one send stalled in fin_wait, got {:?}",
            demo.stuck
        ));
    }
    if unrecorded.stuck != demo.stuck {
        failures.push(format!(
            "flight.enable off diagnoses {:?}, on {:?}",
            unrecorded.stuck, demo.stuck
        ));
    }
    Outcome {
        summary: format!(
            "{} diagnostic(s), {} flight dump(s)",
            demo.diagnostics.len(),
            demo.flight_dumps.len()
        ),
        docs: vec![("flight_dump.json", demo.to_json())],
        failures,
    }
}

fn critpath() -> Outcome {
    // 1 MiB messages: past the pipeline floor, so each send runs the
    // full chunked rendezvous whose stages the report decomposes.
    let capture = measure::critpath_pingpong(&paper(), 1 << 20, 4);
    // A 1 MiB rendezvous must decompose into at least four named stages
    // that partition the measured total exactly, and the merged Chrome
    // trace must link the two ranks with flow arrows.
    let mut failures = Vec::new();
    let big: Vec<_> = capture
        .report
        .msgs
        .iter()
        .filter(|m| !m.eager && m.len == 1 << 20)
        .collect();
    if big.is_empty() {
        failures.push("no 1 MiB rendezvous message in the report".to_string());
    }
    for m in &big {
        let nonzero = m.stages.iter().filter(|(_, ns)| *ns > 0).count();
        if nonzero < 4 {
            failures.push(format!(
                "gid {:#x} decomposed into only {nonzero} nonzero stage(s): {:?}",
                m.gid, m.stages
            ));
        }
        if m.stage_sum_ns() != m.total_ns {
            failures.push(format!(
                "gid {:#x} stages sum to {}ns, total is {}ns",
                m.gid,
                m.stage_sum_ns(),
                m.total_ns
            ));
        }
    }
    let chrome = capture.chrome_trace();
    if !chrome.contains("\"ph\":\"s\"") || !chrome.contains("\"ph\":\"f\"") {
        failures.push("merged Chrome trace has no cross-rank flow events".to_string());
    }
    Outcome {
        summary: format!(
            "{} message(s) decomposed across {} size bucket(s)",
            capture.report.msgs.len(),
            capture.report.buckets.len()
        ),
        docs: vec![
            ("critpath.json", capture.to_json()),
            ("critpath.txt", capture.report.render()),
        ],
        failures,
    }
}

fn timeline() -> Outcome {
    // 8 ranks, eager-sized messages: the senders flood without waiting
    // for a handshake, so every packet converges on rank 0's ejection
    // link at once and the periodic sampler sees its queue depth ramp
    // while the incast is in full swing.
    let capture = measure::timeline_incast(&paper(), 8, 1 << 10, 32);
    let samples = capture.victim_samples().len();
    let peak = capture.victim_max_ej_queue();
    let mut failures = Vec::new();
    if samples == 0 {
        failures.push("sampler produced no samples on the victim".to_string());
    }
    if peak < 2 {
        failures.push(
            "victim ejection queue never exceeded 1 (no congestion ramp visible)".to_string(),
        );
    }
    Outcome {
        summary: format!("{samples} sample(s) on the victim, peak ej queue {peak}"),
        docs: vec![("timeline.json", capture.to_json())],
        failures,
    }
}

fn registry() -> Outcome {
    // A 1-rank world is enough: the registry is per-endpoint and the
    // values reported are the live ones after config application.
    let json = measure::introspect_registry(&paper());
    let (cvars, counters) = (cvars_markdown(), counters_markdown());
    let mut failures = snapshot_failures("cvars.md", &cvars);
    failures.extend(snapshot_failures("counters.md", &counters));
    if !json.contains("\"cvars\":[{") || !json.contains("\"pvars\":[{") {
        failures.push("registry dump came up empty".to_string());
    }
    Outcome {
        summary: format!(
            "{} bytes of cvar/pvar registry, {} cvars and {} counters against results/",
            json.len(),
            CVARS.len(),
            Counters::table().count()
        ),
        docs: vec![
            ("registry.json", json),
            ("cvars.md", cvars),
            ("counters.md", counters),
        ],
        failures,
    }
}

/// The counter table as markdown, one line per counter:
/// `results/counters.md`.
fn counters_markdown() -> String {
    let rows: String = Counters::table()
        .map(|d| format!("| `{}` | {} | {} |\n", d.name, d.class, d.desc))
        .collect();
    format!(
        "# Counters\n\n\
         Every telemetry counter, one line each, rendered from the counter table in\n\
         `crates/core/src/metrics.rs` by `harness gate registry`, which fails when\n\
         this file differs. Refresh it with `cp gate-out/counters.md results/counters.md`.\n\
         A counter's name is both its pvar and its key in `metrics.json`. Its class\n\
         says which cluster aggregates mean something: `count` and `ns` (a summed\n\
         duration) sum across ranks; `max` is a high-water mark, whose sum means\n\
         nothing; `gauge` is a current level.\n\n\
         | counter | class | description |\n|---|---|---|\n{rows}"
    )
}

/// The knob table as markdown, one line per cvar: `results/cvars.md`.
fn cvars_markdown() -> String {
    let defaults = StackConfig::default();
    let mut doc = String::from(
        "# Control variables\n\n\
         Every `StackConfig` knob, one line each, rendered from the knob table in\n\
         `crates/core/src/config.rs` by `harness gate registry`, which fails when\n\
         this file differs. Refresh it with `cp gate-out/cvars.md results/cvars.md`.\n\
         Durations are in ns. The range holds for a config at init\n\
         (`StackConfig::validate`) and for every runtime write (`cvar_write`),\n\
         except that a config may hold `flow.credits = 0`, which init resolves.\n\n\
         | cvar | type | default | writable | range | description |\n\
         |---|---|---|---|---|---|\n",
    );
    for d in CVARS {
        let default = d.get(&defaults);
        let shown = match &default {
            CvarValue::Str(s) => s.clone(),
            v => v.to_json(),
        };
        doc.push_str(&format!(
            "| `{}` | {} | {shown} | {} | {} | {} |\n",
            d.name,
            default.type_name(),
            if d.writable { "yes" } else { "no" },
            d.range_text().unwrap_or_else(|| "any".to_string()),
            d.desc
        ));
    }
    doc
}

fn telemetry() -> Outcome {
    // 4 ranks, 16 KiB messages: well past the eager limit, so the
    // rendezvous histograms and RDMA counters all light up.
    let telemetry = measure::telemetry_pingpong(&paper(), 4, 16 << 10, 8);
    // A non-zero drop count means the timeline is missing its oldest
    // events; raise telemetry.trace_capacity for a complete one.
    let dropped: u64 = telemetry.traces.iter().map(|(_, log)| log.dropped()).sum();
    Outcome {
        summary: format!(
            "{} events over 4 ranks, {dropped} trace event(s) dropped",
            telemetry.report.events_processed
        ),
        docs: vec![
            ("metrics.json", telemetry.to_json()),
            ("trace.json", telemetry.chrome_trace()),
        ],
        failures: Vec::new(),
    }
}

fn introspect() -> Outcome {
    // The telemetry ping-pong with the watchdog armed (64 progress ticks
    // per scan). One run feeds both documents, so pvar and metric totals
    // agree exactly.
    let (telemetry, report) = measure::introspect_pingpong(&paper(), 4, 16 << 10, 8, 64);
    Outcome {
        summary: format!(
            "{} stall(s), straggler {:?}",
            report.stalls, report.cluster.straggler
        ),
        docs: vec![
            ("introspect.json", report.to_json()),
            ("introspect_metrics.json", telemetry.to_json()),
        ],
        failures: Vec::new(),
    }
}

fn reliability() -> Outcome {
    let telemetry = measure::reliability_pingpong(&paper(), 64 << 10, 1);
    let healed: u64 = telemetry
        .per_rank
        .iter()
        .map(|m| m.counters.retransmits)
        .sum();
    Outcome {
        summary: format!("1 FIN_ACK frame dropped, {healed} retransmission(s) healed the loss"),
        docs: vec![("reliability.json", telemetry.to_json())],
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(doc: &'static str, failures: &[&str]) -> Outcome {
        Outcome {
            docs: vec![(doc, format!("{{\"doc\":\"{doc}\"}}"))],
            summary: doc.to_string(),
            failures: failures.iter().map(|f| f.to_string()).collect(),
        }
    }

    #[test]
    fn a_failing_row_does_not_stop_the_rows_after_it() {
        let dir = std::env::temp_dir().join(format!("ompi-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows: &[Row] = &[
            ("first", || outcome("first.json", &[])),
            ("broken", || outcome("broken.json", &["gate tripped"])),
            ("last", || outcome("last.json", &[])),
        ];
        let failures = run(rows, &dir);
        assert_eq!(failures, ["broken: gate tripped"]);
        for doc in ["first.json", "broken.json", "last.json"] {
            let body = std::fs::read_to_string(dir.join(doc)).unwrap();
            assert_eq!(body, format!("{{\"doc\":\"{doc}\"}}"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_difference("a\nb\n", "a\nc\n"),
            Some((2, "b\n", "c\n"))
        );
        assert_eq!(first_difference("a\nb\n", "a\nb"), Some((2, "b\n", "b")));
        assert_eq!(first_difference("a\n", "a\nb\n"), Some((2, "", "b\n")));
    }
}
