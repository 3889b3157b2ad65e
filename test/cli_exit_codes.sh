#!/usr/bin/env bash
# Exit-code contract of dfcheck (see the table in bin/dfcheck.ml):
#   0  deadlock-free / success
#   1  deadlock found
#   2  usage or spec error
#   3  verdict unknown
# Run by a dune rule with the dfcheck binary as $1; spec fixtures are
# resolved relative to this script's sandbox copy of the workspace.
set -u
dfcheck=$1
specs=../examples/specs
fail=0

expect() {
  want=$1
  shift
  "$dfcheck" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: dfcheck $* -> exit $got, want $want"
    fail=1
  else
    echo "ok: dfcheck $* -> $got"
  fi
}

# deadlock-free algorithms -> 0
expect 0 check -a efa
expect 0 check -t hypercube:3 -a ecube
expect 0 spec check "$specs/updown.dfr"

# deadlock witnesses (knot or True Cycle) -> 1
expect 1 check -a efa-relaxed
expect 1 check -a duato-incoherent
expect 1 spec check "$specs/incoherent.dfr"

# usage and spec errors -> 2
expect 2 check -a no-such-algorithm
expect 2 check
expect 2 no-such-subcommand
expect 2 check -a efa --no-such-flag
expect 2 spec check /dev/null

# an integer literal past max_int is a positioned spec error at its
# first digit, not an uncaught int_of_string failure
big=$(mktemp)
printf 'nodes 2\nchannel a : 0 -> 1 vc 99999999999999999999\n' > "$big"
msg=$("$dfcheck" spec check "$big" 2>&1 >/dev/null)
got=$?
if [ "$got" -eq 2 ] && [ "$msg" = "$big:2:23: integer literal out of range" ]; then
  echo "ok: dfcheck spec check (oversized literal) -> $got, positioned"
else
  echo "FAIL: dfcheck spec check (oversized literal) -> exit $got, message: $msg"
  fail=1
fi
rm -f "$big"

# hop-class takes one buffer class per hop, so larger meshes get more
# classes instead of a routing-time crash
expect 0 check -a hop-class -t mesh:5x4
expect 0 check -a hop-class -t mesh:6x6
# an instance the routing function refuses is a usage error, not an
# uncaught exception (exit 125)
expect 2 check -a two-buffer -t torus:4x4
# ...for every subcommand that takes an instance
expect 2 bwg -a efa -t mesh:3x3
expect 2 bwg -a two-buffer -t torus:4x4
expect 2 simulate -a two-buffer -t torus:4x4 --horizon 10
expect 2 simulate -a duato-incoherent --horizon 10
expect 2 matrix -t torus:4x4
# simulate validates before injecting: the refusal must not depend on
# whether a packet happens to reach the route call that refuses the mesh
expect 2 simulate -a efa -t mesh:3x3 --horizon 10

# --domains counts domains: 0 and below are usage errors everywhere
expect 2 check -a efa --domains=0
expect 2 fuzz --trials 2 --domains=0

# hotspot nodes are range-checked before injection: a negative or
# too-large node is a usage error, never a wild array index
expect 2 simulate -a ecube -t hypercube:2 -p hotspot:-3 --horizon 50
expect 2 simulate -a ecube -t hypercube:2 -p hotspot:99 --horizon 50
expect 0 simulate -a ecube -t hypercube:2 -p hotspot:0 --horizon 50

# differential fuzzing: a clean head disagrees with itself nowhere -> 0
expect 0 fuzz --trials 10 --seed 7 --max-nodes 6

# the serve/client surface
expect 0 list --json
expect 2 serve --queue 0
expect 2 serve --cache=-1
expect 2 client ping                 # --port is required
expect 2 client check --port 1      # needs --spec or -a before connecting
expect 2 client ping --port 1       # nothing listens on port 1

# a serve session is a success (exit 0) even when individual requests
# fail: errors travel in-band as response objects, never as exit codes
expect_stdin() {
  want=$1
  input=$2
  shift 2
  printf '%s' "$input" | "$dfcheck" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: ... | dfcheck $* -> exit $got, want $want"
    fail=1
  else
    echo "ok: ... | dfcheck $* -> $got"
  fi
}

# synthesis: 0 = synthesized (or certified maximal), 1 = honest Unsat
# (Theorem 3: no BWG' exists), 2 = usage, 3 = gave up
expect 0 synth --mode bwg -a two-buffer
expect 0 synth --mode bwg --minimize -a two-buffer
expect 0 synth --mode optimal -a two-buffer
expect 0 synth --mode repair -a dragonfly-minimal-1vc
expect 0 spec dot --bwg-prime "$specs/updown.dfr"
# random fuzz designs usually deadlock; seed 7 deterministically yields an
# Unsat in the batch, so the run reports 1 — the honest refutation path
expect 1 synth --mode bwg --random 2 --seed 7 --max-nodes 6
expect 1 synth --mode bwg -a single-buffer
expect 1 synth --mode bwg -a efa-relaxed
expect 2 synth --mode bogus -a efa
expect 2 synth --mode bwg                      # no input selected
expect 2 synth --mode bwg -a no-such-algorithm

# synthesized output is deterministic: bit-identical across --domains
synth_det() {
  algo=$1
  shift
  a=$("$dfcheck" synth "$@" -a "$algo" --domains 1 2>/dev/null)
  b=$("$dfcheck" synth "$@" -a "$algo" --domains 4 2>/dev/null)
  if [ "$a" = "$b" ] && [ -n "$a" ]; then
    echo "ok: synth $* -a $algo identical across --domains"
  else
    echo "FAIL: synth $* -a $algo differs across --domains"
    fail=1
  fi
}
synth_det two-buffer --mode bwg
synth_det two-buffer --mode bwg --minimize
synth_det two-buffer --mode optimal
synth_det dragonfly-minimal-1vc --mode repair

expect_stdin 0 '{"op":"ping"}
garbage
{"op":"check","algo":"no-such-algorithm"}
{"op":"shutdown"}
' serve
expect_stdin 0 '' serve              # immediate EOF drains cleanly

# scenario campaigns: 0 = every fault survived, 1 = a fault deadlocks,
# 2 = unusable plan/instance/workload
plans=../examples/plans
expect 1 scenario sweep -a dimension-order -t mesh:3x3 --plan "$plans/mesh_link_cut.plan"
expect 1 scenario run -a dimension-order -t mesh:3x3 --plan "$plans/node_failure.plan"
expect 2 scenario run -a dimension-order --plan /no/such/file.plan
expect 2 scenario run -a no-such-algorithm --plan "$plans/mesh_link_cut.plan"
expect 2 scenario run --plan "$plans/mesh_link_cut.plan"   # no instance
# a free sweep: duato-torus tolerates losing one adaptive channel
noop=$(mktemp)
printf 'plan "free"\nseed 1\n' > "$noop"
expect 0 scenario sweep -a duato-mesh -t mesh:3x3 --plan "$noop"
# adversarial generators validate up front: an unusable workload is a
# usage error (exit 2), never a simulator spin or a wild index
expect 2 scenario run -a duato-mesh -t mesh:3x3 --plan "$noop" --traffic storm:99
expect 2 scenario run -a duato-mesh -t mesh:3x3 --plan "$noop" --traffic bursty:4 --length 0
expect 2 scenario run -a duato-mesh -t mesh:3x3 --plan "$noop" --traffic bursty:0
expect 2 scenario run -a duato-mesh -t mesh:3x3 --plan "$noop" --traffic seeking  # free verdict: nothing to seek
expect 0 scenario run -a duato-mesh -t mesh:3x3 --plan "$noop" --traffic bursty:4 --rate 0.02 --latency
rm -f "$noop"

# campaign reports are deterministic: bit-identical across --domains and
# across the incremental/cold checking paths
scenario_det() {
  a=$("$dfcheck" scenario sweep -a dimension-order -t mesh:3x3 --plan "$plans/mesh_link_cut.plan" --json --domains 1 2>/dev/null)
  b=$("$dfcheck" scenario sweep -a dimension-order -t mesh:3x3 --plan "$plans/mesh_link_cut.plan" --json --domains 4 2>/dev/null)
  c=$("$dfcheck" scenario sweep -a dimension-order -t mesh:3x3 --plan "$plans/mesh_link_cut.plan" --json --cold 2>/dev/null)
  if [ "$a" = "$b" ] && [ "$a" = "$c" ] && [ -n "$a" ]; then
    echo "ok: scenario sweep identical across --domains and --cold"
  else
    echo "FAIL: scenario sweep differs across --domains or --cold"
    fail=1
  fi
}
scenario_det

exit $fail
