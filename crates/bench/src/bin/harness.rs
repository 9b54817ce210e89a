//! Experiment harness: regenerate the paper's tables and figures, and run
//! the gated scenarios.
//!
//! ```text
//! cargo run --release -p ompi-bench --bin harness -- <experiment>...
//! cargo run --release -p ompi-bench --bin harness -- all | paper | compare
//! cargo run --release -p ompi-bench --bin harness -- fig10a --csv
//! cargo run --release -p ompi-bench --bin harness -- gate [NAME...] --out-dir DIR
//! ```
//!
//! `--csv` and `--md` print the experiment tables as CSV or markdown;
//! `compare` prints the paper-vs-measured anchors.
//!
//! `gate` runs the named rows of [`ompi_bench::gate::ROWS`] (every row when
//! no name is given) in table order, writes each row's documents under
//! `DIR`, and prints one line per row: name, PASS or FAIL, wall time and a
//! summary. It keeps going past a failing row, then exits 1 listing every
//! failure; it exits 2 for an unknown row name or a `DIR` it cannot
//! create.

use std::path::Path;
use std::process::exit;

use ompi_bench::gate::{self, ROWS};
use ompi_bench::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gate") {
        run_gate(&args[1..]);
    }
    let mut csv = false;
    let mut md = false;
    let mut selected: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--csv" => csv = true,
            "--md" => md = true,
            _ if a.starts_with("--") => {
                eprintln!("unknown flag `{a}`");
                exit(2);
            }
            _ => selected.push(a),
        }
    }

    if selected.is_empty() {
        eprintln!(
            "usage: harness [--csv|--md] <experiment>... | all | paper | compare\n       \
             harness gate [NAME...] --out-dir DIR"
        );
        eprintln!("experiments:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        list_rows();
        exit(2);
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
            exit(2);
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
}

fn list_rows() {
    eprintln!("gate rows:");
    for (name, _) in ROWS {
        eprintln!("  {name}");
    }
}

/// `harness gate [NAME...] --out-dir DIR`.
fn run_gate(args: &[String]) -> ! {
    let mut out_dir: Option<&str> = None;
    let mut names: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = Some(dir),
                None => {
                    eprintln!("--out-dir needs a directory");
                    exit(2);
                }
            },
            _ if a.starts_with("--") => {
                eprintln!("unknown flag `{a}`");
                exit(2);
            }
            _ => names.push(a),
        }
    }
    let Some(out_dir) = out_dir else {
        eprintln!("usage: harness gate [NAME...] --out-dir DIR");
        list_rows();
        exit(2);
    };
    if let Some(bad) = names.iter().find(|n| !ROWS.iter().any(|(r, _)| r == *n)) {
        eprintln!("unknown gate row `{bad}`");
        list_rows();
        exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create out-dir {out_dir}: {e}");
        exit(2);
    }
    let rows: Vec<gate::Row> = ROWS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.contains(name))
        .copied()
        .collect();
    let failures = gate::run(&rows, Path::new(out_dir));
    if failures.is_empty() {
        exit(0);
    }
    eprintln!("{} gate failure(s):", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    exit(1);
}
