#!/usr/bin/env bash
# Build dfcheck and dfbench from this checkout's sources, then run one
# benchmark invocation:
#
#   bash bench/e2e/run.sh --workload t1-dragonfly --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays inside the checkout's _build/
# (dfbench's scratch files go to _build/dfbench/); the last line of stdout
# is the run's JSON summary.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/dfcheck.ml ] || [ ! -d lib ]; then
  echo "dfbench: $(pwd) is not a dfr checkout (dune-project, bin/, lib/ missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/dfbench/tmp"
mkdir -p "$TMPDIR"
dune build --root . bin/dfcheck.exe bench/e2e/dfbench.exe >&2
exec ./_build/default/bench/e2e/dfbench.exe run "$@"
