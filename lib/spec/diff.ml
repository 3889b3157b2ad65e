(* Structural differ over validated specs: given a base and an edited
   spec, compute which destinations' routing could differ — the "dirty
   frontier" the incremental re-checker rebuilds, everything else being
   reused.

   Soundness rests on how {!Elaborate} resolves rules: the route (resp.
   wait) table entry of a state (buf, dest) is decided by first-match over
   the kind's rules restricted to those whose [to] clause is the wildcard
   or exactly [dest].  So destination [dest]'s entire table is a function
   of the *subsequence of applicable rules* (and of the shared skeleton:
   channels, topology, switching...).  If that subsequence — compared by
   kind, selector and outputs, positions stripped — is unchanged between
   base and edit, every table entry of [dest] is unchanged, and with it
   the destination's state-space slice, move graph and BWG emissions.

   The comparison is conservative in the other direction: a rule rewrite
   that happens to resolve to the same tables (say, replacing a wildcard
   with the equivalent per-destination rules) marks destinations dirty
   that did not semantically change.  That only costs reuse, never
   correctness.

   One pass: each side's rules are bucketed by destination once, and a
   destination's applicable subsequence is its own bucket merged in
   declaration order with the wildcard rules. *)

open Dfr_topology
open Table

type frontier = { dirty : int list; total : int }
type t = Incompatible of string | Frontier of frontier

(* Everything a destination's tables depend on besides its applicable
   rules.  The name is included because it is embedded in every rendered
   report; channel names are not (buffers are described by their (src,
   dst, vc) triple, and the canonical reprint regenerates names). *)
let skeleton_mismatch a b =
  let chan_triple (c : Validate.channel) = (c.Validate.csrc, c.Validate.cdst, c.Validate.cvc) in
  let ca = Validate.channels a and cb = Validate.channels b in
  if Validate.name a <> Validate.name b then Some "network name"
  else if Validate.switching a <> Validate.switching b then Some "switching mode"
  else if Validate.waiting a <> Validate.waiting b then Some "waiting discipline"
  else if Validate.num_nodes a <> Validate.num_nodes b then Some "node count"
  else if Validate.vcs a <> Validate.vcs b then Some "virtual channel count"
  else if
    Option.map Topology.name (Validate.topology a) <> Option.map Topology.name (Validate.topology b)
  then Some "topology"
  else if
    Array.length ca <> Array.length cb
    || not (Array.for_all2 (fun c1 c2 -> chan_triple c1 = chan_triple c2) ca cb)
  then Some "channel table"
  else None

(* Rule [i] of [ta] and rule [j] of [tb] decide a state alike: same kind,
   selector and outputs ([to] aside). *)
let same_rule ta i tb j =
  let f k = rule ta i k = rule tb j k in
  f r_flags && f r_sel_arg
  &&
  if outs ta i <> outs_list then f r_outs_arg
  else
    f r_outs_len
    &&
    let oa = rule ta i r_outs_arg and ob = rule tb j r_outs_arg in
    let rec go k = k = rule ta i r_outs_len || (ta.outs.(oa + k) = tb.outs.(ob + k) && go (k + 1)) in
    go 0

(* Rule indices grouped by destination, each group ascending: group
   [d + 1] holds the rules [to d], group 0 the rules [to *], and group g
   is [order.(start.(g)) .. order.(start.(g + 1) - 1)]. *)
type buckets = { order : int array; start : int array }

let buckets tb num_nodes =
  let start = Array.make (num_nodes + 2) 0 in
  for r = 0 to tb.num_rules - 1 do
    let g = rule tb r r_dst + 1 in
    start.(g + 1) <- start.(g + 1) + 1
  done;
  for g = 1 to num_nodes + 1 do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let fill = Array.sub start 0 (num_nodes + 1) in
  let order = Array.make tb.num_rules 0 in
  for r = 0 to tb.num_rules - 1 do
    let g = rule tb r r_dst + 1 in
    order.(fill.(g)) <- r;
    fill.(g) <- fill.(g) + 1
  done;
  { order; start }

(* A cursor over destination [d]'s applicable rules: [next ()] returns
   them in declaration order, then -1. *)
let applicable { order; start } d =
  let own = ref start.(d + 1) and own_end = start.(d + 2) in
  let wild = ref start.(0) and wild_end = start.(1) in
  fun () ->
    if !own < own_end && (!wild >= wild_end || order.(!own) < order.(!wild)) then begin
      incr own;
      order.(!own - 1)
    end
    else if !wild < wild_end then begin
      incr wild;
      order.(!wild - 1)
    end
    else -1

let diff base edit =
  match skeleton_mismatch base edit with
  | Some what -> Incompatible (what ^ " changed")
  | None ->
    let n = Validate.num_nodes base in
    let ta = Validate.table base and tb = Validate.table edit in
    let ba = buckets ta n and bb = buckets tb n in
    let differs d =
      let next_a = applicable ba d and next_b = applicable bb d in
      let rec go () =
        let i = next_a () and j = next_b () in
        if i < 0 || j < 0 then i <> j else (not (same_rule ta i tb j)) || go ()
      in
      go ()
    in
    let dirty = ref [] in
    for dest = n - 1 downto 0 do
      if differs dest then dirty := dest :: !dirty
    done;
    Frontier { dirty = !dirty; total = n }
