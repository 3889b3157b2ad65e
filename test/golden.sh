#!/usr/bin/env bash
# Byte-for-byte regression check of `dfcheck check --json` against
# committed reports, and of the same instances served by `dfcheck serve`.
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
#
# The serve leg sends every instance through one `dfcheck serve` session;
# each response's `.report` must equal the golden file.  Both sides go
# through `jq -c .`, which keeps key order, so the compact wire form is
# compared with the pretty file as the same document.
#
# The metrics leg runs when the directory has a `metrics/` subdirectory
# (the glob above does not reach it): each `metrics/ALGO@TOPO.json` holds
# the size counters and gauges of `check --json --metrics` on that
# instance, the figures a cheaper BWG build must keep (capped witnesses,
# states, BWG edges and vertices) and the size of its closure rows: the
# dense rows and `bwg.closure.words`, the words of each destination's
# row arena (rows of waiting heads only) summed over destinations.  They
# are selected with the filter below; regenerate a file by piping the
# same command line through `jq "$metrics_filter"`.
set -u
dfcheck=$1
dir=$2
fail=0
n=0
requests=()
for want in "$dir"/*.json; do
  base=$(basename "$want" .json)
  case "$base" in
  *@*)
    algo=${base%%@*}
    topo=$(printf '%s' "${base#*@}" | tr _ :)
    args=(-a "$algo" -t "$topo")
    requests+=("$(jq -nc --arg a "$algo" --arg t "$topo" '{op: "check", algo: $a, topology: $t}')")
    ;;
  *)
    args=(-a "$base")
    requests+=("$(jq -nc --arg a "$base" '{op: "check", algo: $a}')")
    ;;
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
mapfile -t responses < <(printf '%s\n' "${requests[@]}" | "$dfcheck" serve 2>/dev/null)
i=0
for want in "$dir"/*.json; do
  got=$(printf '%s' "${responses[$i]:-}" | jq -c .report 2>/dev/null)
  if [ "$got" != "$(jq -c . "$want")" ]; then
    echo "FAIL: serve ${requests[$i]} differs from $want"
    fail=1
  fi
  i=$((i + 1))
done
metrics_filter='.metrics | {counters: (.counters | {"bwg.closure.dense-rows", "bwg.closure.words", "bwg.witnesses.capped", "space.states"}), gauges: (.gauges | {"bwg.edges", "bwg.vertices"})}'
m=0
for want in "$dir"/metrics/*.json; do
  [ -e "$want" ] || continue
  base=$(basename "$want" .json)
  algo=${base%%@*}
  topo=$(printf '%s' "${base#*@}" | tr _ :)
  m=$((m + 1))
  if ! "$dfcheck" check -a "$algo" -t "$topo" --json --metrics 2>/dev/null |
    jq "$metrics_filter" | cmp -s - "$want"; then
    echo "FAIL: check -a $algo -t $topo --json --metrics: pinned values differ from $want"
    fail=1
  fi
done
msg="ok: $n golden reports in $dir, from check --json and serve"
[ "$m" -gt 0 ] && msg="$msg; $m metric pins"
[ "$fail" -eq 0 ] && echo "$msg"
exit $fail
