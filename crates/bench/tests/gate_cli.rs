//! `harness gate` refuses bad input with exit code 2 and a message that
//! says what was wrong, before it runs any row.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("the harness binary runs")
}

#[test]
fn unknown_row_exits_2_and_lists_the_rows() {
    let dir = std::env::temp_dir().join(format!("ompi-gate-cli-unknown-{}", std::process::id()));
    let out = harness(&["gate", "no-such-row", "--out-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-row"), "{stderr}");
    for (name, _) in ompi_bench::gate::ROWS {
        assert!(stderr.contains(name), "row {name} not listed in: {stderr}");
    }
    assert!(
        !dir.exists(),
        "an invalid request must not create the out-dir"
    );
}

#[test]
fn uncreatable_out_dir_exits_2_and_names_the_path() {
    // A directory cannot be created beneath a regular file, whoever runs
    // the test.
    let file = std::env::temp_dir().join(format!("ompi-gate-cli-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let dir = file.join("out");
    let out = harness(&["gate", "registry", "--out-dir", dir.to_str().unwrap()]);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(dir.to_str().unwrap()), "{stderr}");
}
