#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> \
#     --trace <0|1> [--holdout-seed <m>]
# The build log goes to stderr, so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
