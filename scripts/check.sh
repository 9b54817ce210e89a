#!/usr/bin/env bash
# Repo gate: formatting, lints, every test suite, and the harness gates.
# Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
# clippy.toml also rejects std::sync::{Arc, Mutex} and randomly keyed
# HashMap/HashSet constructors: a simulation stays on one thread, and its
# maps use qsim's fixed hasher. `clippy::allow_attributes` rejects
# `#[allow]`: an allowance is written `#[expect]`, which fails the gate
# once the lint it silences stops firing.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::allow_attributes

echo "== rustdoc (workspace, warnings are errors)"
# A doc link to an item that was deleted, renamed or is private fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== release build + workspace tests"
# The workspace suite includes the root package's tier-1 tests, the
# reliability and dynamics/fault-injection groups, the qsim coroutine
# lifecycle tests and the calendar-vs-BTree schedule-hash cross-checks.
cargo build --release
cargo test --workspace -q

echo "== examples (release build, each run must exit 0)"
# cargo test and clippy only compile the examples; running them catches an
# example whose own checks (asserts on its results) no longer hold.
cargo build --release --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "-- $name"
    "./target/release/examples/$name" > /dev/null
done

echo "== perfbench build + tests"
# perfbench is a package of its own (empty [workspace]), so neither the
# workspace build nor its tests see it. This catches an API change that
# breaks the benchmark, and its corrupted-payload test catches a frame
# layout slip.
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "== qsim tests, optimised"
# The kernel's in-place wake dispatch, its state borrows across coroutine
# switches, the switch itself and the callback pool's unsafe block code
# (closures moved in and out of recycled blocks, the free list threaded
# through them) are the code whose behaviour can differ under
# optimisation; the workspace suite above builds in debug. This step also
# runs tests/callback_allocs.rs optimised.
cargo test -p qsim --release -q

echo "== core allocation-count tests, optimised"
# Under -O, LLVM may remove or merge heap allocations, so the exact counts
# of the eager path (tests/eager_allocs.rs), of the NIC-offloaded
# collectives (tests/nic_coll_allocs.rs) and of the rendezvous RDMA path
# (tests/rdma_allocs.rs: the doorbell rows, and the shared completion
# queue's combined and separate rows) must also hold in a release build.
cargo test -p openmpi-core --release -q --test eager_allocs --test nic_coll_allocs \
    --test rdma_allocs

echo "== harness gates"
# Every row of crates/bench/src/gate.rs: the paper-figure snapshot
# (results/experiments.md), the bench curves and the observability demos.
# Each row's documents land in gate-out/, which CI uploads. When a paper
# figure legitimately changes, copy gate-out/experiments.md over
# results/experiments.md and commit it as a reviewed diff.
cargo run --release -q -p ompi-bench --bin harness -- gate --out-dir gate-out

echo "All checks passed."
