#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 suite. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
# clippy.toml also rejects std::sync::{Arc, Mutex} and randomly keyed
# HashMap/HashSet constructors: a simulation stays on one thread, and its
# maps use qsim's fixed hasher.
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + root test suite"
cargo build --release
cargo test -q

echo "== workspace tests: every crate's unit and integration tests"
# Tier-1 runs only the root package; this runs the rest, including the
# qsim coroutine lifecycle tests and the calendar-vs-BTree schedule-hash
# cross-checks in crates/qsim/tests/determinism.rs.
cargo test --workspace -q

echo "== qsim tests, optimised"
# The kernel's in-place wake dispatch, its state borrows across coroutine
# switches and the switch itself are the code whose behaviour can differ
# under optimisation; the workspace suite above builds in debug.
cargo test -p qsim --release -q

echo "== paper figures: results/experiments.md matches the harness"
# Regenerates every table and the paper-vs-measured anchors; a change to
# any simulated figure must land as a reviewed diff of the snapshot.
scripts/experiments.sh | diff -u results/experiments.md -

echo "== fault injection: reliability + dynamics/faults test groups"
cargo test -q --test reliability --test dynamics_and_faults

echo "== bench smoke: registration-cache before/after"
# Exits nonzero unless the cached run is strictly faster with nonzero hits.
cargo run --release -q -p ompi-bench --bin harness -- \
    --reg-bench --bench-out BENCH_regcache.json

echo "== bench smoke: pipelined-rendezvous bandwidth curve"
# Exits nonzero unless the pipelined path is strictly faster than the
# monolithic path at 256 KiB and 1 MiB (registration costs on the
# critical path: cache off, window 1).
cargo run --release -q -p ompi-bench --bin harness -- \
    --bw-curve --bench-out BENCH_pipeline.json

echo "== bench smoke: end-to-end flow control"
# Incast / all-to-all / unexpected-flood with credit-based flow control
# off and on. Exits nonzero unless flow-on beats flow-off on incast
# completion time, bounds the victim's ejection-queue peak below the
# flow-off run, and keeps the uncongested ping-pong within 5%.
cargo run --release -q -p ompi-bench --bin harness -- \
    --flow-bench --bench-out BENCH_flow.json

echo "== bench smoke: simulator self-profile"
# Events/s on a fixed reference workload — the baseline CI tracks for
# kernel regressions. Exits nonzero if the profile comes up empty, if the
# schedule fingerprint diverges across repeat runs or between the calendar
# and reference BTree queues, or if throughput falls below the floor
# (4x the pre-rewrite 148,370 events/s baseline).
cargo run --release -q -p ompi-bench --bin harness -- \
    --sim-bench --sim-floor 593480 --bench-out BENCH_sim.json

echo "== bench smoke: wall-clock-budgeted 1024-rank collective sweep"
# Barrier rounds at 64/256/1024 ranks; exits nonzero if any point comes up
# empty, the whole sweep blows its wall-clock budget, or any point falls
# below the per-point events/s floor (the 1024-rank point is the binding
# one: 150,000 against a 216,983 baseline).
cargo run --release -q -p ompi-bench --bin harness -- \
    --rank-sweep --sweep-budget-ms 60000 --sweep-floor 150000 \
    --bench-out BENCH_sweep.json

echo "== bench smoke: NIC-offloaded collective latency curve"
# Barrier / bcast / allreduce at 64/256/1024 ranks, host-driven trees vs
# the NIC-resident chained event programs. Exits nonzero unless the
# offloaded path strictly beats the host path for every collective at 256
# and 1024 ranks.
cargo run --release -q -p ompi-bench --bin harness -- \
    --coll-curve --bench-out BENCH_coll.json

echo "== observability demo: incast congestion report"
# 8-rank incast; exits nonzero if the per-link table comes up empty.
cargo run --release -q -p ompi-bench --bin harness -- \
    --congestion-report --metrics-out congestion.json > /dev/null

echo "== observability demo: forced stall + flight-recorder dump"
# Exits nonzero unless the watchdog abort produces a flight dump.
cargo run --release -q -p ompi-bench --bin harness -- \
    --stall-demo --flight-out flight_dump.json > /dev/null 2>stall_demo.log \
    || { cat stall_demo.log; exit 1; }

echo "== observability demo: cross-rank critical-path report"
# 1 MiB pipelined rendezvous; exits nonzero unless the per-message stage
# decomposition reconciles with the measured total and the merged Chrome
# trace carries cross-rank flow events.
cargo run --release -q -p ompi-bench --bin harness -- \
    --critpath --critpath-out critpath.json > /dev/null
test -s critpath.json

echo "== observability demo: incast timeline (periodic pvar sampler)"
# 8-rank incast with the time-series sampler on; exits nonzero unless the
# victim's ejection-queue ramp is visible in the samples.
cargo run --release -q -p ompi-bench --bin harness -- \
    --timeline --timeline-out timeline.json > /dev/null
test -s timeline.json

echo "== introspection registry dump"
# Exits nonzero if the cvar/pvar registry comes up empty.
cargo run --release -q -p ompi-bench --bin harness -- \
    --list-introspect > /dev/null

echo "All checks passed."
