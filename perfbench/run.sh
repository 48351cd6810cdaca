#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload verify --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the JSON
# result. The dune cache is off so nothing is written outside the
# checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
