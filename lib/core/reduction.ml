open Dfr_network
module Obs = Dfr_obs.Obs

type removed = { head : int; dest : int; target : int }

type outcome =
  | Reduced of Bwg.t * removed list
  | Impossible
  | Gave_up of string

(* No True Cycles in [bwg]?  Returns [Ok (Some witness)] when a True Cycle
   exists, [Ok None] when provably none does, [Error reason] when a cap was
   hit.  With no True Cycle found, a truncated enumeration is the reason
   even if some classification was capped too, as in [Checker.decide]:
   the missing cycles are the larger gap. *)
let true_cycle_status ?cycle_limits ?class_limits ?(shortest_first = false) bwg
    =
  let open Dfr_graph.Cycles in
  (* classify one cycle: stop at a True one, else remember whether a
     False verdict only meant "no realization within the caps" *)
  let step c (_, uncertain) =
    match Cycle_class.classify ?limits:class_limits bwg c with
    | Cycle_class.True_cycle packets -> Stop (Some (c, packets), uncertain)
    | Cycle_class.False_resource_cycle { exhaustive } ->
      Continue (None, uncertain || not exhaustive)
  in
  let enumerated = ref 0 in
  let (witness, uncertain), cycles_exhaustive =
    if shortest_first then begin
      (* shortest cycles have the fewest witness packets, so a caller
         learning blocking clauses from the witness gets the tightest
         clause; stable sort keeps determinism.  Sorting needs them all. *)
      let cycles, exhaustive = Bwg.cycles ?limits:cycle_limits bwg in
      enumerated := List.length cycles;
      let rec go acc = function
        | [] -> acc
        | c :: rest -> (
          match step c acc with Continue acc -> go acc rest | Stop acc -> acc)
      in
      ( go (None, false)
          (List.stable_sort
             (fun a b -> compare (List.length a) (List.length b))
             cycles),
        exhaustive )
    end
    else
      (* enumeration order: classify each cycle as Johnson's search
         closes it and end the search at the first True Cycle, which is
         all a Theorem-3 probe needs *)
      Bwg.fold_cycles ?limits:cycle_limits bwg
        (fun c acc ->
          incr enumerated;
          step c acc)
        (None, false)
  in
  Obs.count "reduction.cycles.enumerated" !enumerated;
  match witness with
  | Some w -> Ok (Some w)
  | None when not cycles_exhaustive -> Error "cycle enumeration truncated"
  | None when uncertain -> Error "cycle classification hit its caps"
  | None -> Ok None

let verify_hint ?cycle_limits ?class_limits space =
  match State_space.reduced_waits space with
  | None -> None
  | Some wait_sets ->
    Obs.span "reduction.verify-hint" @@ fun () ->
    let session = Bwg.Session.create ~waits:wait_sets space in
    let bwg = Bwg.Session.bwg session in
    if not (Bwg.is_wait_connected bwg) then
      Some (Gave_up "reduced-waits hint is not wait-connected")
    else (
      match true_cycle_status ?cycle_limits ?class_limits bwg with
      | Ok None -> Some (Reduced (Bwg.Session.snapshot session, []))
      | Ok (Some _) -> Some (Gave_up "reduced-waits hint still has a True Cycle")
      | Error reason -> Some (Gave_up ("hint verification: " ^ reason)))

(* Wait entries that generate BWG edge q -> w: pairs (head, dest) with
   [w] in the current waiting set of (head, dest) and [head] reachable
   from [q] by a continuation (wormhole) or equal to [q] (SAF/VCT).
   Destinations ascend; a destination's heads come in the order its
   continuation search records them. *)
let generating_entries space current ~wormhole q w =
  let acc = ref [] in
  for dest = 0 to State_space.num_nodes space - 1 do
    if State_space.is_reachable space ~buf:q ~dest then begin
      let heads =
        if wormhole then
          let g = State_space.move_graph space ~dest in
          let seen = Hashtbl.create 16 in
          let rec dfs v =
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.replace seen v ();
              Dfr_graph.Csr.iter_succ dfs g v
            end
          in
          dfs q;
          Hashtbl.fold (fun v () l -> v :: l) seen []
        else [ q ]
      in
      List.iter
        (fun h -> if List.mem w (current ~buf:h ~dest) then acc := (h, dest) :: !acc)
        heads
    end
  done;
  List.rev !acc

(* Theorem 3 as a Clause_search problem: one variable per wait entry of a
   reachable state, 0 live and 1 removed, numbered in [iter_reachable]
   order and, within a state, in rule order.  [assign] removes or
   restores the entry in one wait-set session, and the probe reads the
   session's BWG', which re-derives only the destinations touched since
   the last probe.

   A conflict is a True Cycle.  Its witness packets name the wait entries
   generating its edges; with routes fixed, the same packets realize the
   same cycle while all of those entries stay live, so the clause "remove
   one of them" is exact and an exhausted search proves that no
   wait-connected BWG' is free of True Cycles.  [assign] refuses to
   remove a state's last live wait, which no wait-connected BWG' does.
   The preferred moves are edge cuts: remove every live entry generating
   one cycle edge, edges in cycle order. *)
let search ?cycle_limits ?class_limits ?(budget = 2000) ?domains space =
  Obs.span "reduction.search" @@ fun () ->
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  let num_nodes = State_space.num_nodes space in
  let key buf dest = (buf * num_nodes) + dest in
  let session = Bwg.Session.create ?domains space in
  let wait_sets = Bwg.Session.waits session in
  let keys = ref [] and waits = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest ->
      match State_space.waits space ~buf ~dest with
      | [] -> ()
      | ws ->
        keys := key buf dest :: !keys;
        waits := ws :: !waits);
  (* the states with waits, keys ascending *)
  let keys = Array.of_list (List.rev !keys) in
  let rule = Array.of_list (List.rev !waits) in
  (* state s owns entries first.(s) .. first.(s + 1) - 1 *)
  let first = Array.make (Array.length rule + 1) 0 in
  Array.iteri (fun s ws -> first.(s + 1) <- first.(s) + List.length ws) rule;
  let n = first.(Array.length rule) in
  let owner = Array.make n 0 in
  Array.iteri (fun s _ -> Array.fill owner first.(s) (first.(s + 1) - first.(s)) s) rule;
  (* the search's assignment: 0 live, 1 removed *)
  let value = Array.make n 0 in
  let live v = value.(v) = 0 in
  let state buf dest =
    let k = key buf dest in
    let rec go lo hi =
      let mid = (lo + hi) / 2 in
      if keys.(mid) < k then go (mid + 1) hi else if keys.(mid) > k then go lo mid else mid
    in
    go 0 (Array.length keys)
  in
  let entry v =
    let s = owner.(v) in
    {
      head = keys.(s) / num_nodes;
      dest = keys.(s) mod num_nodes;
      target = List.nth rule.(s) (v - first.(s));
    }
  in
  (* the live entry of state (buf, dest) waiting on [target] *)
  let var_of buf dest target =
    let s = state buf dest in
    let rec find v = function
      | t :: rest -> if live v && t = target then v else find (v + 1) rest
      | [] -> raise Not_found
    in
    find first.(s) rule.(s)
  in
  (* removed entries, most recent first: the report lists them in
     decision order *)
  let removals = ref [] in
  let assign v x =
    let { head = buf; dest; target } = entry v in
    if x = 1 then
      match wait_sets ~buf ~dest with
      | [] | [ _ ] -> false
      | _ ->
        removals := v :: !removals;
        Bwg.Session.remove session ~buf ~dest target;
        true
    else begin
      removals := List.filter (( <> ) v) !removals;
      Bwg.Session.restore session ~buf ~dest target;
      true
    end
  in
  let probe () =
    Obs.count "reduction.attempts" 1;
    true_cycle_status ?cycle_limits ?class_limits (Bwg.Session.bwg session)
  in
  let clause (_, packets) =
    ( List.map
        (fun (p : Cycle_class.packet) ->
          let head = List.hd (List.rev p.Cycle_class.path) in
          { Clause_search.var = var_of head p.Cycle_class.dest p.Cycle_class.waits_for;
            value = 0 })
        packets,
      [] )
  in
  (* the cuts that leave every state they touch a wait *)
  let moves (cycle, _) =
    let edges = List.combine cycle (List.tl cycle @ [ List.hd cycle ]) in
    Seq.filter_map
      (fun (q, w) ->
        let entries = generating_entries space wait_sets ~wormhole q w in
        if
          List.for_all
            (fun (h, d) -> List.compare_length_with (wait_sets ~buf:h ~dest:d) 1 > 0)
            entries
        then
          Some
            (List.map (fun (h, d) -> { Clause_search.var = var_of h d w; value = 1 }) entries)
        else None)
      (List.to_seq edges)
  in
  let outcome, stats =
    Clause_search.run ~budget ~arity:(fun _ -> 2) value { probe; clause; moves; assign }
  in
  let result =
    match outcome with
    | Clause_search.Found ->
      (* the session still holds the assignment the last probe accepted *)
      Reduced (Bwg.Session.snapshot session, List.rev_map entry !removals)
    | Clause_search.Exhausted -> Impossible
    | Clause_search.Gave_up reason -> Gave_up reason
  in
  (result, stats)
