#!/usr/bin/env bash
# Print results/experiments.md as the harness regenerates it: every
# experiment's markdown table (`harness --md all`), then the
# paper-vs-measured anchors (`harness compare`) in a fenced block.
#
#   scripts/experiments.sh > results/experiments.md       # regenerate
#   scripts/experiments.sh | diff -u results/experiments.md -   # check
set -euo pipefail
cd "$(dirname "$0")/.."

harness=(cargo run --release -q -p ompi-bench --bin harness --)
"${harness[@]}" --md all 2>/dev/null
echo
echo "### Paper-vs-measured anchors (harness compare)"
echo '```'
"${harness[@]}" compare
echo '```'
