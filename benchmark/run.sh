#!/usr/bin/env bash
# Builds the benchmark from source in the release profile, then runs it
# from the repository root with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload flood-layered --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh run --seed 1 --out bench-out
#
# Build output stays in _build/ and the dune cache is off, so nothing is
# written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --profile release --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
