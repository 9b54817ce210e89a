//! The repository benchmark: three seeded workloads (`pingpong`, `coll256`,
//! `incast`) against the public API, on both clocks. See `README.md`.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the untraced workload until `--seconds` have passed
//! and prints the end-to-end metrics; `--trace 1` pairs untraced and traced
//! repetitions and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the lines before it are the same numbers for
//! people. The exit code is 0 only if every output verified and every
//! determinism check held.

mod harness;
mod host;
mod layers;
mod stats;
mod workloads;

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use harness::{run_rep, Phase, RepCfg, RepOut};
use layers::Metric;
use stats::{median, peak_rss_mb, ratio, tail};
use workloads::{Plan, NAMES};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;
/// Untraced repetitions per run at least: two to cross-check the virtual
/// clock, three for a median set-up time.
const MIN_REPS: usize = 3;
/// Where the traced run writes its spans, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload pingpong|coll256|incast \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// What one run prints as its last line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any rank thread exists, so that all of them inherit it.
    let cpu =
        host::pin_first_cpu().map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"));
    let plan = Arc::new(Plan::new(&args.workload, args.seed, None).expect("name checked"));
    println!(
        "workload {} seed {} ranks {} ops/repetition {} {cpu}",
        args.workload,
        args.seed,
        plan.ranks(),
        plan.ops()
    );
    let mut out = if args.trace {
        traced(&plan, &args)
    } else {
        plain(&plan, &args)
    };
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.problems.push(format!("{} is not a number", m.name));
            m.value = 0.0;
        }
    }
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn full(traced: bool) -> RepCfg {
    RepCfg {
        phase: Phase::Full,
        traced,
        corrupt: 0,
    }
}

/// Record a problem for every repetition whose virtual results differ from
/// the first one's.
fn same_virtual<'a>(
    what: &str,
    reps: impl Iterator<Item = &'a RepOut>,
    problems: &mut Vec<String>,
) {
    let mut reps = reps.enumerate();
    let Some((_, first)) = reps.next() else {
        return;
    };
    for (k, r) in reps {
        if r.virt != first.virt {
            problems.push(format!(
                "{what} {k} differs from the first on the virtual clock \
                 (schedule hash {:#x} vs {:#x}, end {} vs {} ns)",
                r.virt.schedule_hash, first.virt.schedule_hash, r.virt.end_ns, first.virt.end_ns
            ));
        }
    }
}

/// `--trace 0`: untraced repetitions until `--seconds` have passed, with a
/// thread handoff sample before the first and after each; the end-to-end
/// metrics.
fn plain(plan: &Arc<Plan>, args: &Args) -> Outcome {
    let start = Instant::now();
    let mut handoff = vec![host::handoff_ns(plan.ranks())];
    let mut reps = vec![run_rep(plan, full(false))];
    // The peak of a process that has run one repetition: later repetitions
    // reuse freed memory, so reading it at the end would depend on how many
    // fit in `--seconds`.
    let rss = peak_rss_mb();
    handoff.push(host::handoff_ns(plan.ranks()));
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reps.push(run_rep(plan, full(false)));
        handoff.push(host::handoff_ns(plan.ranks()));
    }
    let mut problems = Vec::new();
    same_virtual("repetition", reps.iter(), &mut problems);
    let v = &reps[0].virt;
    // The simulator's wall time is mostly thread handoffs, so each
    // repetition's wall times are scaled by the host's handoff speed,
    // measured just before and just after it (see `host`).
    let ref_ns = plan.handoff_ref_ns();
    let scales: Vec<f64> = handoff
        .windows(2)
        .map(|w| 2.0 * ref_ns / (w[0] + w[1]))
        .collect();
    let scaled = |f: &dyn Fn(&RepOut) -> f64| {
        median(
            &reps
                .iter()
                .zip(&scales)
                .map(|(r, s)| s * f(r))
                .collect::<Vec<_>>(),
        )
    };
    let block = plan.block_ops() as f64;
    // Every repetition runs the same blocks; a block's wall time is its
    // median over the repetitions, so a host hiccup in one of them is
    // outvoted instead of landing in the tail.
    let per_op_us: Vec<f64> = (0..reps[0].blocks_ns.len())
        .map(|j| scaled(&|r| r.blocks_ns[j] as f64) / block / 1e3)
        .collect();
    let pick = |f: fn(&RepOut) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let (setup_s, work_wall_s) = (pick(|r| r.setup_s), pick(|r| r.work_wall_s));
    let lat_us: Vec<f64> = v.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let (wall_tail, lat_tail) = (tail(&per_op_us), tail(&lat_us));
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let failed = reps.iter().map(|r| r.failed).sum();
    let rss = rss.unwrap_or_else(|| {
        problems.push("peak resident memory unavailable (/proc/self/status)".into());
        0.0
    });
    let metrics = vec![
        metric("setup_s", scaled(&|r| r.setup_s), "s"),
        metric("work_wall_s", scaled(&|r| r.work_wall_s), "s"),
        metric("wall_per_op_p50_us", median(&per_op_us), "us"),
        metric("wall_per_op_tail_us", wall_tail.value, "us"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("virt_lat_p50_us", median(&lat_us), "us"),
        metric("virt_lat_tail_us", lat_tail.value, "us"),
        metric(
            "virt_goodput_mbs",
            ratio(v.landed as f64 * 1e3, v.timed_ns as f64),
            "MB/s",
        ),
    ];
    println!(
        "repetitions {} (virtual results identical: {}) schedule_hash {:#018x} events {}",
        reps.len(),
        problems.is_empty(),
        v.schedule_hash,
        v.events
    );
    println!(
        "thread handoff {:.1} ns in a ring of {} (median of {} samples): wall \
         times below are scaled to {ref_ns} ns (median factor {:.4}); \
         as measured: setup_s {setup_s:.6} work_wall_s {work_wall_s:.6}",
        median(&handoff),
        plan.ranks().max(2),
        handoff.len(),
        median(&scales)
    );
    for m in &metrics {
        let (clock, note) = match m.name.as_str() {
            "wall_per_op_tail_us" => (
                "wall",
                format!(
                    "p{:.2} of {} blocks of {block} ops",
                    wall_tail.pct, wall_tail.n
                ),
            ),
            "wall_per_op_p50_us" => (
                "wall",
                format!(
                    "median of {} blocks, each its median over repetitions",
                    per_op_us.len()
                ),
            ),
            "virt_lat_tail_us" => (
                "virtual",
                format!("p{:.2} of {} ops", lat_tail.pct, lat_tail.n),
            ),
            n if n.starts_with("virt_") => ("virtual", String::new()),
            "peak_rss_mb" => ("wall", "after the first repetition".to_string()),
            _ => ("wall", format!("median of {} repetitions", reps.len())),
        };
        println!(
            "{:<22} {:>14.4} {:<5} {:<8} {note}",
            m.name, m.value, m.unit, clock
        );
    }
    println!(
        "{:<22} {:>14.4} {:<5} {:<8} when the last rank left MPI_Init",
        "virt_init_us",
        v.init_ns as f64 / 1e3,
        "us",
        "virtual"
    );
    println!(
        "{:<22} {:>14.4} {:<5} {:<8} {failed} of {attempted} ops",
        "ops_failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
        "-"
    );
    Outcome {
        attempted,
        failed,
        metrics,
        problems,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// `--trace 1`: an init-only world, a warm-up-only run, then untraced and
/// traced repetitions in pairs until `--seconds` have passed; the
/// per-layer metrics.
fn traced(plan: &Arc<Plan>, args: &Args) -> Outcome {
    let start = Instant::now();
    let init_only = run_rep(
        plan,
        RepCfg {
            phase: Phase::InitOnly,
            traced: false,
            corrupt: 0,
        },
    );
    let warm_plan = Arc::new(Plan::new(&args.workload, args.seed, Some(0)).expect("name checked"));
    let warm_only = run_rep(&warm_plan, full(false));
    let mut pairs: Vec<(RepOut, RepOut)> = Vec::new();
    while pairs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        pairs.push((run_rep(plan, full(false)), run_rep(plan, full(true))));
    }
    let mut problems = Vec::new();
    same_virtual(
        "untraced repetition",
        pairs.iter().map(|p| &p.0),
        &mut problems,
    );
    for (k, (p, t)) in pairs.iter().enumerate() {
        same_virtual(
            &format!("pair {k}: traced repetition"),
            [p, t].into_iter(),
            &mut problems,
        );
    }
    let wall = |f: fn(&(RepOut, RepOut)) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
    let overhead_frac = ratio(wall(|p| p.1.work_wall_s), wall(|p| p.0.work_wall_s)) - 1.0;
    let (plain, traced) = pairs.last().expect("at least one pair");
    let (metrics, more) = layers::collect(&layers::Inputs {
        plan,
        plain,
        traced,
        warm_only: &warm_only.report,
        init_only: &init_only,
        overhead_frac,
    });
    problems.extend(more);
    let (b, a) = traced
        .machine
        .as_ref()
        .expect("traced runs snapshot the machine");
    let (hot, occ) = layers::hot_link(b, a);
    println!(
        "pairs {} schedule_hash {:#018x} hot link {hot} ({occ:.3} busy) \
         virt_init_us {:.3} (init-only world: {} events)",
        pairs.len(),
        plain.virt.schedule_hash,
        plain.virt.init_ns as f64 / 1e3,
        init_only.report.events_processed
    );
    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    match write_spans(&args.workload, args.seed, &traced.spans) {
        Ok(path) => println!("spans: {path}"),
        Err(e) => problems.push(format!("writing spans: {e}")),
    }
    Outcome {
        attempted: pairs.iter().map(|p| p.0.attempted + p.1.attempted).sum(),
        failed: pairs.iter().map(|p| p.0.failed + p.1.failed).sum(),
        metrics,
        problems,
    }
}

/// Write the traced repetition's spans as one JSON array.
fn write_spans(workload: &str, seed: u64, spans: &[harness::Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/{workload}-seed{seed}-spans.json");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "[")?;
    for (k, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{k},\"name\":\"{}\",\"rank\":{},\"op\":{},\"parent\":{parent},\
             \"virt_ns\":[{},{}],\"wall_ns\":[{},{}]}}{}",
            s.name,
            s.rank,
            s.op,
            s.virt.0,
            s.virt.1,
            s.wall.0,
            s.wall.1,
            if k + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "]")?;
    f.flush()?;
    Ok(path)
}
