#!/usr/bin/env bash
# The mutation gate: planted faults the test suite must catch.
#
#   bash test/mutants.sh              # every row of test/mutants/table
#   bash test/mutants.sh NAME...      # the named rows only
#
# Each row of test/mutants/table names one planted fault, the patch
# test/mutants/NAME.patch, with the property it breaks and the expected
# answer: `killed`, or `equivalent` when no test can tell the mutant
# from the program (the row says why).  For each row the script checks
# HEAD out into a fresh git worktree under $TMPDIR, applies the patch
# there, runs `dune runtest`, and prints `killed` with the first failing
# test, or `survived`.  It exits 1 when a patch does not apply or build,
# or an answer differs from the expected one.
#
# Every mutant rebuilds the tree and runs the whole suite, about a
# minute each, so this runs as its own CI job, not under `dune runtest`.
# The patches are made against HEAD: a change to a patched line must
# regenerate its patch.
set -u
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
table="$root/test/mutants/table"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/dfr-mutants.XXXXXX")
wt="$tmp/tree"
cleanup() {
  git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1
  rm -rf "$tmp"
  git -C "$root" worktree prune
}
trap cleanup EXIT

# the line of a failed run that names what failed: the first failing
# Alcotest case, else a script's FAIL line, else the first golden file
# a diff rule compared (dune also names test/dune when the suite fails)
first_failure() {
  local log
  log=$(sed 's/\x1b\[[0-9;]*m//g' "$1")
  {
    grep -m1 -E '\[FAIL\]' <<<"$log" || grep -m1 -E '^FAIL' <<<"$log" ||
      grep -E '^File "' <<<"$log" | grep -m1 -v '^File "test/dune"' ||
      grep -m1 -E '^File "' <<<"$log"
  } | sed -E 's/^[>│ ]*//; s/ *│ *$//; s/  +/ /g'
}

status=0
while read -r name property expected _ <&3; do
  case "$name" in '' | '#'*) continue ;; esac
  if [ "$#" -gt 0 ] && ! printf '%s\n' "$@" | grep -qx -- "$name"; then continue; fi
  git -C "$root" worktree add --detach --quiet "$wt" HEAD
  if ! git -C "$wt" apply "$root/test/mutants/$name.patch"; then
    answer="unapplied"
    detail="the patch does not apply to HEAD"
  elif ! (cd "$wt" && dune build ./bin/dfcheck.exe ./test/test_main.exe) >"$tmp/build.log" 2>&1; then
    answer="unbuilt"
    detail=$(grep -m1 -E '^File "' "$tmp/build.log")
  elif (cd "$wt" && timeout 1800 dune runtest) >"$tmp/test.log" 2>&1; then
    answer="survived"
    detail=""
  else
    answer="killed"
    detail=$(first_failure "$tmp/test.log")
    [ -z "$detail" ] && detail="(see dune runtest's output)"
  fi
  if [ "$answer" = "$expected" ] || { [ "$answer" = "survived" ] && [ "$expected" = "equivalent" ]; }; then
    verdict="as expected"
  else
    verdict="EXPECTED $expected"
    status=1
  fi
  printf '%-19s %-10s %-9s %s%s\n' "$name" "$property" "$answer" "$verdict" "${detail:+: $detail}"
  git -C "$root" worktree remove --force "$wt"
done 3<"$table"
exit $status
