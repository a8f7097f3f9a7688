#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
# Keep every build output inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
