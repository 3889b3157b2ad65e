open Dfr_network
open Dfr_routing
open Dfr_graph
module Obs = Dfr_obs.Obs

(* Incremental re-checking session.

   The BWG's edge multiset is the union of independent per-destination
   emissions (Bwg.dest_edges), and a destination's emissions are a pure
   function of (net, algo restricted to that destination).  A session
   caches, per destination: the emission sequence (compressed into
   (q1, head) groups by Bwg.dest_groups, the unit Bwg.Session caches
   too), the destination's stuck / wait-unconnected state
   lists, and its contribution to a maintained merged graph.  An edit
   whose dirty frontier is known (Diff.diff for spec edits, the caller's
   warrant for programmatic ones) re-derives only the dirty destinations
   and patches the merged structures.

   Verdict rendering then splits:

   - {b fast path} — no stuck states, wait-connected, and the maintained
     graph is certified acyclic by a topological rank.  The cold verdict
     would be Theorem 1's [Acyclic_bwg], whose rendered report reads only
     the BWG's vertex/edge counts (witnesses and cycle lists are never
     consulted), so [Report_json.of_counts] reproduces the cold bytes
     without materializing a [Bwg.t] at all.  This is O(edit), tens of
     microseconds on 10^4-buffer instances.

   - {b slow path} — anything else.  The cached emissions are replayed,
     in destination order, through the recorder of [Bwg.replay] (giving a
     BWG structurally identical to a cold build, witness caps included)
     and handed to [Checker.decide], the very pipeline a cold check runs.
     Bit-for-bit identity is by construction, not by re-implementation:
     witness order under the cap and the shortest-first classification
     scan are order-sensitive, so no incremental shortcut is taken past
     this point.

   The acyclicity certificate is a rank array (any topological order of
   the merged graph).  Edge removals keep a valid rank valid; an added
   edge keeps it valid iff it is rank-forward; only a violating addition
   forces a Kahn recomputation — so the steady state of edit traffic on a
   deadlock-free instance never re-runs a full graph pass. *)

type dest_state = {
  mutable groups : Bwg.group list; (* emission order *)
  mutable d_stuck : int list; (* buffers, ascending *)
  mutable d_unconn : int list; (* buffers, ascending *)
}

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
  mutable space : State_space.t;
  dests : dest_state array;
  contrib : (int, int) Hashtbl.t; (* packed edge q1 * B + q2 -> #dests *)
  graph : Digraph.t; (* merged distinct edges, degree-counted *)
  mutable rank : int array option; (* valid topological order, if known *)
  witness_cap : int;
  domains : int;
  cycle_limits : Cycles.limits option;
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
let space t = t.space

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
let scan_dest space dest =
  let v = State_space.dest_view space ~dest in
  let stuck = ref [] and unconn = ref [] in
  for i = Array.length v.State_space.view_bufs - 1 downto 0 do
    let buf = v.State_space.view_bufs.(i) in
    if not (State_space.arrived space ~buf ~dest) then begin
      if v.State_space.view_outs.(i) = [] then stuck := buf :: !stuck;
      if v.State_space.view_wts.(i) = [] then unconn := buf :: !unconn
    end
  done;
  (!stuck, !unconn)

(* Distinct edges of one destination, packed, in first-emission order. *)
let dest_edge_list num_bufs groups =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  List.iter
    (fun (g : Bwg.group) ->
      List.iter
        (fun q2 ->
          let key = (g.Bwg.q1 * num_bufs) + q2 in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            acc := key :: !acc
          end)
        g.Bwg.targets)
    groups;
  !acc

(* Kahn over the merged graph; [Some rank] certifies acyclicity. *)
let compute_rank t =
  let n = Digraph.num_vertices t.graph in
  let indeg = Array.make n 0 in
  Digraph.iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) t.graph;
  let order = Array.make n 0 in
  let filled = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      order.(!filled) <- v;
      incr filled
    end
  done;
  let head = ref 0 in
  while !head < !filled do
    let v = order.(!head) in
    incr head;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          order.(!filled) <- w;
          incr filled
        end)
      (Digraph.succ t.graph v)
  done;
  if !filled = n then begin
    let rank = Array.make n 0 in
    for i = 0 to n - 1 do
      rank.(order.(i)) <- i
    done;
    Some rank
  end
  else None

(* Fold one destination's edge turnover into the merged structures.  The
   contribution counter makes the graph see exactly the distinct-edge
   union; the rank certificate survives removals and rank-forward
   additions, and is dropped (to be recomputed lazily) otherwise. *)
let apply_edge_delta t ~num_bufs ~old_edges ~new_edges =
  let old_set = Hashtbl.create (List.length old_edges) in
  List.iter (fun k -> Hashtbl.replace old_set k ()) old_edges;
  let new_set = Hashtbl.create (List.length new_edges) in
  List.iter (fun k -> Hashtbl.replace new_set k ()) new_edges;
  List.iter
    (fun key ->
      if not (Hashtbl.mem new_set key) then
        match Hashtbl.find_opt t.contrib key with
        | Some 1 ->
          Hashtbl.remove t.contrib key;
          Digraph.remove_edge t.graph (key / num_bufs) (key mod num_bufs)
        | Some c -> Hashtbl.replace t.contrib key (c - 1)
        | None -> assert false)
    old_edges;
  List.iter
    (fun key ->
      if not (Hashtbl.mem old_set key) then
        match Hashtbl.find_opt t.contrib key with
        | Some c -> Hashtbl.replace t.contrib key (c + 1)
        | None ->
          Hashtbl.replace t.contrib key 1;
          let q1 = key / num_bufs and q2 = key mod num_bufs in
          Digraph.unsafe_add_edge t.graph q1 q2;
          (match t.rank with
          | Some r when r.(q1) < r.(q2) -> ()
          | Some _ -> t.rank <- None
          | None -> ()))
    new_edges

(* Merge the per-destination state lists back into the global
   reachable-iteration order: ascending (buf * num_nodes) + dest, exactly
   [State_space.iter_reachable]'s key. *)
let merge_states t proj =
  let num_nodes = State_space.num_nodes t.space in
  let acc = ref [] in
  Array.iteri
    (fun dest ds ->
      List.iter (fun buf -> acc := ((buf * num_nodes) + dest) :: !acc) (proj ds))
    t.dests;
  let arr = Array.of_list !acc in
  Array.sort (fun (a : int) b -> compare a b) arr;
  Array.fold_right
    (fun k acc -> (k / num_nodes, k mod num_nodes) :: acc)
    arr []

let conclude t ~dirty_dests =
  let stuck = merge_states t (fun ds -> ds.d_stuck) in
  let unconnected =
    if stuck = [] then merge_states t (fun ds -> ds.d_unconn) else []
  in
  if t.rank = None then t.rank <- compute_rank t;
  let reused_dests = State_space.num_nodes t.space - dirty_dests in
  (* a verdict renderable from the maintained counts alone: the BWG
     contributes only its vertex/edge numbers to these reports, so
     replaying its emissions would recompute a graph whose only use is
     [Digraph.num_edges] — which the session already has *)
  let from_counts verdict =
    t.n_fast <- t.n_fast + 1;
    Obs.count "incr.fast" 1;
    let report =
      Report_json.of_counts t.net t.algo
        ~bwg_vertices:(Digraph.num_vertices t.graph)
        ~bwg_edges:(Digraph.num_edges t.graph)
        ~bwg_cycles:None ~verdict
    in
    {
      report;
      exit_code = Report_json.exit_code verdict;
      path = Fast;
      dirty_dests;
      reused_dests;
    }
  in
  if stuck = [] && unconnected = [] && t.rank <> None then
    from_counts (Checker.Deadlock_free Checker.Acyclic_bwg)
  else if stuck <> [] then
    (* Checker.decide returns before touching the BWG on stuck states
       (and the maintained list is exactly the ~stuck it would get), so
       a fault that strands packets re-verdicts at fast-path cost — the
       common case of a fault sweep *)
    from_counts (Checker.Deadlock_possible (Checker.Stuck_states stuck))
  else if unconnected <> [] then
    from_counts (Checker.Deadlock_possible (Checker.Not_wait_connected unconnected))
  else begin
    t.n_replay <- t.n_replay + 1;
    Obs.count "incr.replay" 1;
    let bwg =
      Bwg.replay ~witness_cap:t.witness_cap t.space (fun emit ->
          Array.iteri
            (fun dest ds ->
              List.iter
                (fun (g : Bwg.group) ->
                  let wit = { Bwg.dest; head = g.Bwg.head } in
                  List.iter (fun q2 -> emit g.Bwg.q1 q2 wit) g.Bwg.targets)
                ds.groups)
            t.dests)
    in
    let report =
      Checker.decide ?cycle_limits:t.cycle_limits ?class_limits:t.class_limits
        ?reduction_budget:t.reduction_budget ~domains:t.domains ~stuck
        ~unconnected t.space bwg
    in
    {
      report = Report_json.of_outcome t.net t.algo report;
      exit_code = Report_json.exit_code report.Checker.verdict;
      path = Replay;
      dirty_dests;
      reused_dests;
    }
  end

let create ?(witness_cap = 32) ?cycle_limits ?class_limits ?reduction_budget
    ?(domains = 1) net algo =
  Obs.span "incr.create" @@ fun () ->
  let space = State_space.build ~domains net algo in
  let num_nodes = State_space.num_nodes space in
  let num_bufs = State_space.num_buffers space in
  let t =
    {
      net;
      algo;
      space;
      dests =
        Array.init num_nodes (fun _ ->
            { groups = []; d_stuck = []; d_unconn = [] });
      contrib = Hashtbl.create 4096;
      graph = Digraph.create num_bufs;
      rank = None;
      witness_cap;
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
    let ds = t.dests.(dest) in
    ds.groups <- Bwg.dest_groups space ~dest;
    let stuck, unconn = scan_dest space dest in
    ds.d_stuck <- stuck;
    ds.d_unconn <- unconn;
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.contrib key with
        | Some c -> Hashtbl.replace t.contrib key (c + 1)
        | None ->
          Hashtbl.replace t.contrib key 1;
          Digraph.unsafe_add_edge t.graph (key / num_bufs) (key mod num_bufs))
      (dest_edge_list num_bufs ds.groups)
  done;
  let result = conclude t ~dirty_dests:num_nodes in
  (t, { result with reused_dests = 0 })

(* The wait-only quick path applies when the dirty destination's routes —
   and with them its reachable set, move graph, closures and q1 iteration
   order — are untouched, and no formerly-empty waiting set became
   non-empty (a new waiting head would have to be *inserted* into the
   group sequence).  Then the cold emission sequence differs from the
   cached one only in each group's target list (possibly emptied, which
   drops the group), so it can be patched in O(cached emissions) without
   re-running the closure. *)
let patchable (oldv : State_space.dest_view) (newv : State_space.dest_view) =
  oldv.State_space.view_bufs = newv.State_space.view_bufs
  && oldv.State_space.view_outs = newv.State_space.view_outs
  &&
  let ok = ref true in
  Array.iteri
    (fun i w_old ->
      if w_old = [] && newv.State_space.view_wts.(i) <> [] then ok := false)
    oldv.State_space.view_wts;
  !ok

let patch_groups space dest groups =
  List.filter_map
    (fun (g : Bwg.group) ->
      match State_space.waits space ~buf:g.Bwg.head ~dest with
      | [] -> None
      | ws -> Some { g with Bwg.targets = ws })
    groups

let update t algo ~dirty =
  Obs.span "incr.update" @@ fun () ->
  let num_nodes = State_space.num_nodes t.space in
  let num_bufs = State_space.num_buffers t.space in
  let dirty = List.sort_uniq compare dirty in
  List.iter
    (fun d ->
      if d < 0 || d >= num_nodes then
        invalid_arg "Incr.update: destination out of range")
    dirty;
  (* old views must be taken before the slices are replaced *)
  let old_views =
    List.map (fun d -> (d, State_space.dest_view t.space ~dest:d)) dirty
  in
  let space' = State_space.with_updated_dests t.space algo ~dests:dirty in
  (* counted only once the rebuild accepted the edit: a refused edit
     leaves the session untouched *)
  t.n_updates <- t.n_updates + 1;
  t.space <- space';
  t.algo <- algo;
  List.iter
    (fun (d, oldv) ->
      let ds = t.dests.(d) in
      let old_edges = dest_edge_list num_bufs ds.groups in
      let newv = State_space.dest_view space' ~dest:d in
      ds.groups <-
        (if patchable oldv newv then begin
           t.n_patched <- t.n_patched + 1;
           patch_groups space' d ds.groups
         end
         else begin
           t.n_reemitted <- t.n_reemitted + 1;
           Bwg.dest_groups space' ~dest:d
         end);
      let stuck, unconn = scan_dest space' d in
      ds.d_stuck <- stuck;
      ds.d_unconn <- unconn;
      let new_edges = dest_edge_list num_bufs ds.groups in
      apply_edge_delta t ~num_bufs ~old_edges ~new_edges)
    old_views;
  conclude t ~dirty_dests:(List.length dirty)
