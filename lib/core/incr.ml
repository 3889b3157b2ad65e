open Dfr_network
open Dfr_routing
module Obs = Dfr_obs.Obs

(* Incremental re-checking session.

   The BWG's edge multiset is the union of independent per-destination
   emissions (Bwg.dest_edges), and a destination's emissions are a pure
   function of (net, algo restricted to that destination).  One
   Bwg.Session holds them: each destination's (q1, head) groups, a count
   of live emissions per edge, the merged graph and its Theorem-1 rank.
   An edit whose dirty frontier is known (Diff.diff for spec edits, the
   caller's warrant for programmatic ones) replaces only the dirty
   destinations' slices (State_space.with_updated_dests, then
   Bwg.Session.update); a rebuilt slice carries its own stuck and
   wait-less records, so no state is rescanned.

   The verdict is Checker.decide, the very pipeline a cold check runs,
   on the state table's stuck / wait-less records and the session's live BWG:
   bit-for-bit identity is by construction, not by re-implementation.
   Nothing decide reads depends on the order of an adjacency row, where
   the live BWG may differ from a cold build (DESIGN.md §9), and its
   acyclicity test reads the session's rank.  The path is read off the
   verdict: Stuck_states, Not_wait_connected and Theorem 1's Acyclic_bwg
   return before any cycle work, O(edit) and tens of microseconds on
   10^4-buffer instances (Fast); anything else went on to the knot
   search and the cycle stages (Replay). *)

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
  domains : int;
  mutable n_updates : int;
  mutable n_fast : int;
  mutable n_replay : int;
  mutable n_patched : int;
  mutable n_reemitted : int;
}

let net t = t.net
let algo t = t.algo
let space t = Bwg.Session.space t.session
let session t = t.session

let counters t =
  {
    updates = t.n_updates;
    fast_verdicts = t.n_fast;
    replays = t.n_replay;
    patched_dests = t.n_patched;
    reemitted_dests = t.n_reemitted;
  }

(* The recorded lists are exactly what a cold check hands decide (the
   session's live sets are the algorithm's rule), so a fault that strands
   packets re-verdicts before any cycle work — the common case of a fault
   sweep. *)
let conclude t ~dirty_dests =
  let space = space t in
  let stuck = State_space.stuck_states space in
  let unconnected = if stuck = [] then State_space.waitless_states space else [] in
  let report =
    Checker.decide ~domains:t.domains ~stuck ~unconnected space
      (Bwg.Session.bwg t.session)
  in
  let path =
    match report.Checker.verdict with
    | Checker.Deadlock_possible (Checker.Stuck_states _ | Checker.Not_wait_connected _)
    | Checker.Deadlock_free Checker.Acyclic_bwg ->
      t.n_fast <- t.n_fast + 1;
      Obs.count "incr.fast" 1;
      Fast
    | _ ->
      t.n_replay <- t.n_replay + 1;
      Obs.count "incr.replay" 1;
      Replay
  in
  {
    report = Report_json.of_outcome t.net t.algo report;
    exit_code = Report_json.exit_code report.Checker.verdict;
    path;
    dirty_dests;
    reused_dests = State_space.num_nodes space - dirty_dests;
  }

let create ?(domains = 1) net algo =
  Obs.span "incr.create" @@ fun () ->
  let space = State_space.build ~domains net algo in
  let num_nodes = State_space.num_nodes space in
  let t =
    {
      net;
      algo;
      session = Bwg.Session.create ~domains space;
      domains;
      n_updates = 0;
      n_fast = 0;
      n_replay = 0;
      n_patched = 0;
      n_reemitted = 0;
    }
  in
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
  conclude t ~dirty_dests:(List.length dirty)
