#!/usr/bin/env bash
# Byte-for-byte regression check of `dfcheck check --json` against
# committed reports.
#
#   bash test/golden.sh path/to/dfcheck.exe test/golden          # catalogue
#   bash test/golden.sh path/to/dfcheck.exe test/golden/large    # 6k buffers
#
# Each file in the directory is the expected report of one instance:
# `ALGO.json` is the catalogue entry at its default topology, and
# `ALGO@TOPO.json` runs it on topology TOPO with `:` spelled `_` (so
# `dragonfly-minimal@dragonfly_4x2x9.json` is `-a dragonfly-minimal -t
# dragonfly:4x2x9`).  Exit codes are ignored: deadlocking instances exit 1
# and the report bytes are what is pinned.  Regenerate a file by running
# the same command line and redirecting stdout into it.
set -u
dfcheck=$1
dir=$2
fail=0
n=0
for want in "$dir"/*.json; do
  base=$(basename "$want" .json)
  case "$base" in
  *@*) args=(-a "${base%%@*}" -t "$(printf '%s' "${base#*@}" | tr _ :)") ;;
  *) args=(-a "$base") ;;
  esac
  n=$((n + 1))
  if ! "$dfcheck" check "${args[@]}" --json 2>/dev/null | cmp -s - "$want"; then
    echo "FAIL: dfcheck check ${args[*]} --json differs from $want"
    fail=1
  fi
done
if [ "$n" -eq 0 ]; then
  echo "FAIL: no golden reports in $dir"
  exit 1
fi
[ "$fail" -eq 0 ] && echo "ok: $n golden reports in $dir"
exit $fail
