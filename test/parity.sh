#!/usr/bin/env bash
# CLI/serve parity: every operation both surfaces expose returns the same
# document from `dfcheck` as from `dfcheck serve`.  Documents are compared
# with `jq -c .` on both sides, which keeps key order.  Run by a dune rule
# with the dfcheck binary as $1; fixtures are resolved relative to this
# script's sandbox copy of the workspace.  (test/golden.sh pins the named
# `check` op over the golden corpus the same way.)
set -u
dfcheck=$1
specs=../examples/specs
plans=../examples/plans
fail=0
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

same() {
  if [ "$2" = "$3" ] && [ -n "$2" ]; then
    echo "ok: $1"
  else
    echo "FAIL: $1 differs between dfcheck and dfcheck serve"
    fail=1
  fi
}

# one serve session for everything but the delta chain; requests are
# listed next to the CLI command they mirror
requests=()
cli=()
ask() {
  requests+=("$1")
  cli+=("$2")
}
ask '{"op":"catalogue"}' "list --json"
for f in "$specs"/*.dfr; do
  ask "$(jq -nc --rawfile s "$f" '{op: "check", spec: $s}')" "spec check --json $f"
done
for p in "$plans"/*.plan; do
  for mode in sweep sequence; do
    ask "$(jq -nc --rawfile p "$p" --arg m "$mode" \
      '{op: "scenario", algo: "dimension-order", topology: "mesh:3x3", plan: $p, mode: $m}')" \
      "scenario $([ $mode = sweep ] && echo sweep || echo run) -a dimension-order -t mesh:3x3 --plan $p --json"
  done
done
ask '{"op":"check","algo":"no-such-algorithm"}' "check -a no-such-algorithm"
mapfile -t responses < <(printf '%s\n' "${requests[@]}" | "$dfcheck" serve 2>/dev/null)

for i in "${!requests[@]}"; do
  resp=${responses[$i]:-}
  read -r -a args <<<"${cli[$i]}"
  out=$("$dfcheck" "${args[@]}" 2>"$work/err")
  code=$?
  case "${cli[$i]}" in
  list*) same "${cli[$i]}" "$(jq -c . <<<"$out")" "$(jq -c .algorithms <<<"$resp")" ;;
  "spec check"*)
    same "${cli[$i]}" "$code $(jq -c . <<<"$out")" \
      "$(jq -c .exit <<<"$resp") $(jq -c .report <<<"$resp")"
    ;;
  scenario*)
    same "${cli[$i]}" "$code $(jq -c . <<<"$out")" \
      "$(jq -c .exit <<<"$resp") $(jq -c .campaign <<<"$resp")"
    ;;
  check*)
    # a usage error: exit 2 on the CLI, bad_request in serve, one message
    same "${cli[$i]} (error)" "$code $(cat "$work/err")" \
      "$(jq -r 'if .error.kind == "bad_request" then "2 " + .error.message else "" end' <<<"$resp")"
    ;;
  esac
done

# `spec check --base` against `check_delta`: the fullmesh single-route
# edit of CI's incr-smoke job.  Sessions live in one process, so the first
# serve run only learns the base digest and the second seeds and edits.
base=$work/base.dfr
edit=$work/edit.dfr
cp "$specs/fullmesh.dfr" "$base"
sed 's|^route at 0 to 1 : c0_1_0$|route at 0 to 1 : c0_1_0 c0_2_0|' "$base" >"$edit"
seed=$(jq -nc --rawfile s "$base" '{op: "check_delta", base: "unknown", spec: $s}')
digest=$(printf '%s\n' "$seed" | "$dfcheck" serve 2>/dev/null | jq -r .digest)
resp=$(printf '%s\n' "$seed" \
  "$(jq -nc --rawfile s "$edit" --arg d "$digest" '{op: "check_delta", base: $d, spec: $s}')" |
  "$dfcheck" serve 2>/dev/null | tail -n 1)
out=$("$dfcheck" spec check --base "$base" "$edit" 2>"$work/err")
code=$?
same "spec check --base (report, exit)" "$code $(jq -c . <<<"$out")" \
  "$(jq -c .exit <<<"$resp") $(jq -c .report <<<"$resp")"
same "spec check --base (delta summary)" "$(cat "$work/err")" \
  "$(jq -r '.delta | "delta: \(.mode) path, \(.dirty_dests)/\(.dirty_dests + .reused_dests) destinations re-derived"' <<<"$resp")"

exit $fail
