open Dfr_network
module Obs = Dfr_obs.Obs

type packet = { dest : int; path : int list; waits_for : int }
type verdict = True_cycle of packet list | False_resource_cycle of { exhaustive : bool }

type limits = {
  max_paths_per_edge : int;
  max_path_length : int;
  max_assignments : int;
}

let default_limits =
  { max_paths_per_edge = 64; max_path_length = 24; max_assignments = 100_000 }

(* Simple paths from [start] to [target] in the per-destination move graph:
   the candidate chains of buffers a single blocked packet can occupy.
   Returns the paths found and whether enumeration was exhaustive.

   Exhaustiveness at the path cap is decided by evidence, not position:
   the search keeps running after [max_paths_per_edge] paths were
   recorded, and only flips [exhaustive] the moment a (cap+1)-th path is
   found (then aborts).  If the remaining search tree holds no further
   path, exploring it is exactly the work a capless enumeration would
   have needed to prove exhaustiveness, so this costs nothing extra —
   while "cap reached" alone no longer downgrades verdicts to Unknown at
   exactly-at-cap boundaries. *)
exception Capped

let simple_paths ~limits g ~start ~target =
  let found = ref [] in
  let count = ref 0 in
  let exhaustive = ref true in
  let on_path = Hashtbl.create 16 in
  let rec dfs v acc len =
    let acc = v :: acc in
    Hashtbl.replace on_path v ();
    if v = target then begin
      if !count >= limits.max_paths_per_edge then begin
        exhaustive := false;
        raise Capped
      end;
      incr count;
      found := List.rev acc :: !found
    end
    else if len >= limits.max_path_length then exhaustive := false
    else
      Dfr_graph.Csr.iter_succ
        (fun w -> if not (Hashtbl.mem on_path w) then dfs w acc (len + 1))
        g v;
    Hashtbl.remove on_path v
  in
  (try dfs start [] 1 with Capped -> ());
  (List.rev !found, !exhaustive)

(* Candidate realizations of one BWG edge q -> w: a destination and an
   occupied path from q to a head buffer whose waiting set contains w.
   Wormhole paths run over the destination's move graph in local ids and
   map back to buffers before the dedup.  A witness list the cap cut
   makes the candidates non-exhaustive, as a cut path enumeration does. *)
let edge_candidates ~limits bwg q w =
  let space = Bwg.space bwg in
  let wormhole =
    Net.switching (State_space.net space) = Net.Wormhole
  in
  let exhaustive = ref true in
  let candidates = ref [] in
  let seen = Hashtbl.create 16 in
  let add dest path =
    let key = (dest, path) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      candidates := { dest; path; waits_for = w } :: !candidates
    end
  in
  let per_witness (wit : Bwg.witness) =
    if wormhole then begin
      let dest = wit.Bwg.dest in
      let v = State_space.dest_view space ~dest in
      let id buf = State_space.index space ~buf ~dest in
      let paths, ex =
        simple_paths ~limits v.State_space.view_moves ~start:(id q)
          ~target:(id wit.Bwg.head)
      in
      if not ex then exhaustive := false;
      List.iter (fun p -> add dest (List.map (Array.get v.State_space.view_bufs) p)) paths
    end
    else add wit.Bwg.dest [ q ]
  in
  let witnesses, all = Bwg.witnesses bwg q w in
  if not all then exhaustive := false;
  List.iter per_witness witnesses;
  (List.rev !candidates, !exhaustive)

exception Found of (int * packet) list

(* Timed but not counted: the parallel scan may classify cycles past the
   short-circuit point, so a call counter would vary with [--domains];
   [Checker] counts the verdict-relevant classifications instead. *)
let classify ?(limits = default_limits) bwg cycle =
  Obs.span "classify.cycle" @@ fun () ->
  let g = Bwg.graph bwg in
  let edges =
    match cycle with
    | [] -> invalid_arg "Cycle_class.classify: empty cycle"
    | first :: _ ->
      let rec pair = function
        | [ last ] -> [ (last, first) ]
        | a :: (b :: _ as rest) -> (a, b) :: pair rest
        | [] -> assert false
      in
      pair cycle
  in
  List.iter
    (fun (q, w) ->
      if not (Dfr_graph.Digraph.mem_edge g q w) then
        invalid_arg "Cycle_class.classify: not a BWG cycle")
    edges;
  let exhaustive = ref true in
  let candidates =
    List.map
      (fun (q, w) ->
        let cands, ex = edge_candidates ~limits bwg q w in
        if not ex then exhaustive := false;
        cands)
      edges
  in
  match cycle with
  | [ _ ] -> (
    (* A single packet waiting on a buffer it occupies: every realizable
       self-loop is the paper's n = 1 deadlock, hence True. *)
    match candidates with
    | [ c :: _ ] -> True_cycle [ c ]
    | _ -> False_resource_cycle { exhaustive = !exhaustive })
  | _ ->
    (* Search for one candidate per edge with pairwise-disjoint occupied
       paths (no buffer simultaneously held by two packets). *)
    let budget = ref limits.max_assignments in
    let occupied = Hashtbl.create 64 in
    let order =
      (* fewest candidates first: fail fast.  Each candidate list keeps
         its original edge index so the witness can be put back into
         cycle order — packet k must realize edge k of [cycle], or
         [pp_verdict]/JSON print packets against the wrong edges. *)
      List.sort
        (fun (_, a) (_, b) -> compare (List.length a) (List.length b))
        (List.mapi (fun i cands -> (i, cands)) candidates)
    in
    let rec assign chosen = function
      | [] -> raise (Found chosen)
      | (edge, cands) :: rest ->
        let try_candidate c =
          if !budget <= 0 then exhaustive := false
          else begin
            decr budget;
            if List.for_all (fun b -> not (Hashtbl.mem occupied b)) c.path then begin
              List.iter (fun b -> Hashtbl.replace occupied b ()) c.path;
              assign ((edge, c) :: chosen) rest;
              List.iter (fun b -> Hashtbl.remove occupied b) c.path
            end
          end
        in
        List.iter try_candidate cands
    in
    (try
       assign [] order;
       False_resource_cycle { exhaustive = !exhaustive }
     with Found chosen ->
       True_cycle
         (List.map snd
            (List.sort (fun (i, _) (j, _) -> compare (i : int) j) chosen)))

type scan = {
  found : (int list * packet list) option;
  classified : int;
  uncertain : bool;
}

(* With [domains > 1] the classifications fan out over OCaml 5 domains,
   worker k taking indices k, k + domains, ...  The answer stays
   bit-for-bit the serial one: the reported True Cycle is the one of
   minimal index.  A worker stops at index [i] only once a True Cycle is
   recorded at some index <= i — [i] can then never be the minimum, and
   every index below the minimum is still classified.  Workers only read
   [cycles]; each builds a list for the cycles it classifies. *)
let first_true_cycle ?limits ?(domains = 1) bwg cycles =
  let n = Array.length cycles in
  let verdicts = Array.make n None in
  let best = Atomic.make max_int in
  let n_dom = max 1 (min domains n) in
  let worker k =
    let i = ref k in
    while !i < n && !i < Atomic.get best do
      let v = classify ?limits bwg (Array.to_list cycles.(!i)) in
      verdicts.(!i) <- Some v;
      (match v with
      | True_cycle _ ->
        (* lower [best] to !i unless it is already smaller *)
        let rec lower () =
          let b = Atomic.get best in
          if !i < b && not (Atomic.compare_and_set best b !i) then lower ()
        in
        lower ()
      | False_resource_cycle _ -> ());
      i := !i + n_dom
    done
  in
  if n_dom = 1 then worker 0
  else
    Dfr_util.Domain_pool.parallel ~domains:n_dom (fun k ->
        Obs.span "checker.classify.worker" (fun () -> worker k));
  (* [classified] counts the classifications the answer rests on: every
     cycle below the True one plus the witness, otherwise all n — the same
     at every [domains], though workers may classify past the minimum
     before they see it *)
  let rec collect uncertain classified i =
    if i >= n then { found = None; classified; uncertain }
    else
      match verdicts.(i) with
      | Some (True_cycle packets) ->
        {
          found = Some (Array.to_list cycles.(i), packets);
          classified = classified + 1;
          uncertain;
        }
      | Some (False_resource_cycle { exhaustive }) ->
        collect (uncertain || not exhaustive) (classified + 1) (i + 1)
      | None -> collect uncertain classified (i + 1)
  in
  collect false 0 0

(* A stable counting sort by length: the same cycle arrays, shortest
   first, equal lengths in enumeration order. *)
let by_length cycles =
  let longest = Array.fold_left (fun l c -> max l (Array.length c)) 0 cycles in
  let start = Array.make (longest + 2) 0 in
  Array.iter (fun c -> start.(Array.length c + 1) <- start.(Array.length c + 1) + 1) cycles;
  for l = 1 to longest + 1 do
    start.(l) <- start.(l) + start.(l - 1)
  done;
  let sorted = Array.make (Array.length cycles) [||] in
  Array.iter
    (fun c ->
      let l = Array.length c in
      sorted.(start.(l)) <- c;
      start.(l) <- start.(l) + 1)
    cycles;
  sorted

type full_scan = { enumerated : int; cycles_exhaustive : bool; scan : scan }

(* Every cycle, each stored once as an array of its length, in
   enumeration order. *)
let store ?limits bwg =
  let stored, exhaustive =
    Bwg.fold_cycles ?limits bwg
      (fun p stored -> Dfr_graph.Cycles.Continue (Dfr_graph.Cycles.path_to_array p :: stored))
      []
  in
  (Array.of_list (List.rev stored), exhaustive)

let shortest_first_scan ?cycle_limits ?limits ?(domains = 1) ~obs bwg =
  let cycles, cycles_exhaustive =
    Obs.span (obs ^ ".cycle-scan") (fun () -> store ?limits:cycle_limits bwg)
  in
  let enumerated = Array.length cycles in
  Obs.count (obs ^ ".cycles.enumerated") enumerated;
  let scan =
    Obs.span (obs ^ ".classify") @@ fun () ->
    let scan = first_true_cycle ?limits ~domains bwg (by_length cycles) in
    Obs.count (obs ^ ".cycles.classified") scan.classified;
    scan
  in
  { enumerated; cycles_exhaustive; scan }

(* Each cycle is classified the moment Johnson's search closes it, and
   the search ends at the first True one: a caller that needs only
   whether a True Cycle exists stores none of the cycles. *)
let streaming_scan ?cycle_limits ?limits ~obs bwg =
  let classify_span = obs ^ ".classify" in
  let enumerated = ref 0 in
  let (found, uncertain), cycles_exhaustive =
    Obs.span (obs ^ ".cycle-scan") @@ fun () ->
    Bwg.fold_cycles ?limits:cycle_limits bwg
      (fun p (_, uncertain) ->
        incr enumerated;
        let c = Dfr_graph.Cycles.path_to_list p in
        match Obs.span classify_span (fun () -> classify ?limits bwg c) with
        | True_cycle packets -> Dfr_graph.Cycles.Stop (Some (c, packets), uncertain)
        | False_resource_cycle { exhaustive } ->
          Dfr_graph.Cycles.Continue (None, uncertain || not exhaustive))
      (None, false)
  in
  (* a scan that met no cycle still records its classify stage *)
  if !enumerated = 0 then Obs.span classify_span ignore;
  Obs.count (obs ^ ".cycles.enumerated") !enumerated;
  Obs.count (obs ^ ".cycles.classified") !enumerated;
  {
    enumerated = !enumerated;
    cycles_exhaustive;
    scan = { found; classified = !enumerated; uncertain };
  }

let inconclusive ~cycles_exhaustive ~uncertain =
  if not cycles_exhaustive then Some "cycle enumeration truncated"
  else if uncertain then Some "cycle classification hit its caps"
  else None

let pp_packet net fmt p =
  Format.fprintf fmt "@[<h>packet->n%d occupies [%s] waits %s@]" p.dest
    (String.concat "; " (List.map (Net.describe_buffer net) p.path))
    (Net.describe_buffer net p.waits_for)
