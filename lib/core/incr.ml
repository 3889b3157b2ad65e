open Dfr_network
open Dfr_routing
module Obs = Dfr_obs.Obs

(* Incremental re-checking session.

   The BWG's edge multiset is the union of independent per-destination
   emissions (Bwg.dest_edges), and a destination's emissions are a pure
   function of (net, algo restricted to that destination).  One
   Bwg.Session holds them: each destination's (q1, head) groups, a count
   of live emissions per edge, the merged graph and its Theorem-1 rank.
   On top of it this module keeps, per destination, the stuck /
   wait-unconnected state lists.  An edit whose dirty frontier is known
   (Diff.diff for spec edits, the caller's warrant for programmatic ones)
   replaces only the dirty destinations' slices (Bwg.Session.update) and
   rescans their states.

   Verdict rendering then splits:

   - {b fast path} — stuck states, an unconnected state, or no cycle:
     the session's rank certifies the graph acyclic.  The cold verdict
     is then Stuck_states, Not_wait_connected or Theorem 1's
     Acyclic_bwg, whose rendered report reads only the BWG's vertex/edge
     counts (witnesses and cycle lists are never consulted), so the
     session's live BWG renders the cold bytes.  This is O(edit), tens
     of microseconds on 10^4-buffer instances.

   - {b slow path} — anything else.  Bwg.Session.snapshot runs the
     cold build's edge pass over the session's groups and a copy of its
     live wait sets (a BWG structurally identical to a cold build, row
     order and witness caps included, with no closure re-run) and hands
     it to Checker.decide, the very pipeline a cold check runs.
     Bit-for-bit identity is by construction, not by re-implementation:
     witness order under the cap and the shortest-first classification
     scan are order-sensitive, so no incremental shortcut is taken past
     this point. *)

type path = Fast | Replay

type result = {
  report : Dfr_util.Json.t;
  exit_code : int;
  path : path;
  dirty_dests : int;
  reused_dests : int;
}

type counters = {
  updates : int;
  fast_verdicts : int;
  replays : int;
  patched_dests : int;
  reemitted_dests : int;
}

type t = {
  net : Net.t;
  mutable algo : Algo.t;
  session : Bwg.Session.t;
  stuck : int list array; (* per dest: buffers, ascending *)
  unconn : int list array; (* per dest: buffers, ascending *)
  domains : int;
  cycle_limits : Dfr_graph.Cycles.limits option;
  class_limits : Cycle_class.limits option;
  reduction_budget : int option;
  mutable n_updates : int;
  mutable n_fast : int;
  mutable n_replay : int;
  mutable n_patched : int;
  mutable n_reemitted : int;
}

let net t = t.net
let algo t = t.algo
let space t = Bwg.Session.space t.session

let counters t =
  {
    updates = t.n_updates;
    fast_verdicts = t.n_fast;
    replays = t.n_replay;
    patched_dests = t.n_patched;
    reemitted_dests = t.n_reemitted;
  }

(* The destination's rows of [State_space.stuck_states] and
   [Bwg.unconnected_states]: reachable, not arrived, empty outputs
   (resp. waits); ascending by buffer like the views themselves. *)
let scan t dest =
  let space = space t in
  let v = State_space.dest_view space ~dest in
  let stuck = ref [] and unconn = ref [] in
  for i = Array.length v.State_space.view_bufs - 1 downto 0 do
    let buf = v.State_space.view_bufs.(i) in
    if not (State_space.arrived space ~buf ~dest) then begin
      if v.State_space.view_outs.(i) = [] then stuck := buf :: !stuck;
      if v.State_space.view_wts.(i) = [] then unconn := buf :: !unconn
    end
  done;
  t.stuck.(dest) <- !stuck;
  t.unconn.(dest) <- !unconn

(* Merge the per-destination state lists back into the global
   reachable-iteration order: ascending (buf * num_nodes) + dest, exactly
   [State_space.iter_reachable]'s key. *)
let merge_states per_dest =
  let num_nodes = Array.length per_dest in
  let acc = ref [] in
  Array.iteri
    (fun dest bufs ->
      List.iter (fun buf -> acc := ((buf * num_nodes) + dest) :: !acc) bufs)
    per_dest;
  let arr = Array.of_list !acc in
  Array.sort (fun (a : int) b -> compare a b) arr;
  Array.fold_right (fun k acc -> (k / num_nodes, k mod num_nodes) :: acc) arr []

let conclude t ~dirty_dests =
  let space = space t in
  let stuck = merge_states t.stuck in
  let unconnected = if stuck = [] then merge_states t.unconn else [] in
  (* a verdict renderable from the live BWG alone: these reports read
     only its vertex/edge numbers, and Checker.decide returns before
     touching the BWG on stuck or unconnected states (the maintained
     lists are exactly what it would get), so a fault that strands
     packets re-verdicts at fast-path cost — the common case of a fault
     sweep *)
  let fast verdict =
    t.n_fast <- t.n_fast + 1;
    Obs.count "incr.fast" 1;
    let bwg = Bwg.Session.bwg t.session in
    ({ Checker.verdict; space; bwg; bwg_cycles = None }, Fast)
  in
  let report, path =
    if stuck <> [] then fast (Checker.Deadlock_possible (Checker.Stuck_states stuck))
    else if unconnected <> [] then
      fast (Checker.Deadlock_possible (Checker.Not_wait_connected unconnected))
    else if Bwg.Session.rank t.session <> None then
      fast (Checker.Deadlock_free Checker.Acyclic_bwg)
    else begin
      t.n_replay <- t.n_replay + 1;
      Obs.count "incr.replay" 1;
      ( Checker.decide ?cycle_limits:t.cycle_limits ?class_limits:t.class_limits
          ?reduction_budget:t.reduction_budget ~domains:t.domains ~stuck ~unconnected
          space
          (Bwg.Session.snapshot t.session),
        Replay )
    end
  in
  {
    report = Report_json.of_outcome t.net t.algo report;
    exit_code = Report_json.exit_code report.Checker.verdict;
    path;
    dirty_dests;
    reused_dests = State_space.num_nodes space - dirty_dests;
  }

let create ?(witness_cap = 32) ?cycle_limits ?class_limits ?reduction_budget
    ?(domains = 1) net algo =
  Obs.span "incr.create" @@ fun () ->
  let space = State_space.build ~domains net algo in
  let num_nodes = State_space.num_nodes space in
  let t =
    {
      net;
      algo;
      session = Bwg.Session.create ~witness_cap ~domains space;
      stuck = Array.make num_nodes [];
      unconn = Array.make num_nodes [];
      domains;
      cycle_limits;
      class_limits;
      reduction_budget;
      n_updates = 0;
      n_fast = 0;
      n_replay = 0;
      n_patched = 0;
      n_reemitted = 0;
    }
  in
  for dest = 0 to num_nodes - 1 do
    scan t dest
  done;
  let result = conclude t ~dirty_dests:num_nodes in
  (t, { result with reused_dests = 0 })

let update t algo ~dirty =
  Obs.span "incr.update" @@ fun () ->
  let num_nodes = State_space.num_nodes (space t) in
  let dirty = List.sort_uniq compare dirty in
  List.iter
    (fun d ->
      if d < 0 || d >= num_nodes then
        invalid_arg "Incr.update: destination out of range")
    dirty;
  let space' = State_space.with_updated_dests (space t) algo ~dests:dirty in
  (* counted only once the rebuild accepted the edit: a refused edit
     leaves the session untouched *)
  t.n_updates <- t.n_updates + 1;
  t.algo <- algo;
  let kept = Bwg.Session.update t.session space' ~dests:dirty in
  t.n_patched <- t.n_patched + kept;
  t.n_reemitted <- t.n_reemitted + List.length dirty - kept;
  List.iter (scan t) dirty;
  conclude t ~dirty_dests:(List.length dirty)
