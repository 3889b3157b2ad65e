module Obs = Dfr_obs.Obs

type removed = { head : int; dest : int; target : int }

type outcome =
  | Reduced of removed list
  | Impossible
  | Gave_up of string

(* No True Cycles in [bwg]?  Returns [Ok (Some witness)] when a True Cycle
   exists, [Ok None] when provably none does, [Error reason] when a cap was
   hit, with [Checker.decide]'s reason. *)
let true_cycle_status ?cycle_limits ?class_limits ?(shortest_first = false) bwg
    =
  let (witness, uncertain), cycles_exhaustive =
    if shortest_first then begin
      (* a caller learning blocking clauses from the witness gets the
         tightest clause; sorting needs every cycle *)
      let { Cycle_class.scan; cycles_exhaustive; _ } =
        Cycle_class.shortest_first_scan ?cycle_limits ?limits:class_limits
          ~obs:"reduction" bwg
      in
      ((scan.Cycle_class.found, scan.Cycle_class.uncertain), cycles_exhaustive)
    end
    else begin
      (* enumeration order: classify each cycle as Johnson's search
         closes it and end the search at the first True Cycle, which is
         all a Theorem-3 probe needs; a False verdict reached only within
         the caps makes the answer uncertain *)
      let enumerated = ref 0 in
      let status =
        Bwg.fold_cycles ?limits:cycle_limits bwg
          (fun p (_, uncertain) ->
            incr enumerated;
            let c = Dfr_graph.Cycles.path_to_list p in
            match Cycle_class.classify ?limits:class_limits bwg c with
            | Cycle_class.True_cycle packets ->
              Dfr_graph.Cycles.Stop (Some (c, packets), uncertain)
            | Cycle_class.False_resource_cycle { exhaustive } ->
              Dfr_graph.Cycles.Continue (None, uncertain || not exhaustive))
          (None, false)
      in
      Obs.count "reduction.cycles.enumerated" !enumerated;
      status
    end
  in
  match witness with
  | Some w -> Ok (Some w)
  | None -> (
    match Cycle_class.inconclusive ~cycles_exhaustive ~uncertain with
    | Some reason -> Error reason
    | None -> Ok None)

let verify_hint ?cycle_limits space =
  match (State_space.algo space).Dfr_routing.Algo.reduced_waits with
  | None -> None
  | Some _ ->
    Obs.span "reduction.verify-hint" @@ fun () ->
    let bwg = Bwg.Session.bwg (Bwg.Session.create ~rule:Bwg.Session.Hint space) in
    if not (Bwg.is_wait_connected bwg) then
      Some (Gave_up "reduced-waits hint is not wait-connected")
    else (
      match true_cycle_status ?cycle_limits bwg with
      | Ok None -> Some (Reduced [])
      | Ok (Some _) -> Some (Gave_up "reduced-waits hint still has a True Cycle")
      | Error reason -> Some (Gave_up ("hint verification: " ^ reason)))

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
   one cycle edge ([Bwg.Session.emitters]), edges in cycle order.  The
   assignment mirrors the session's live sets, so the last-wait guard
   and the cut filter count a state's live entries off its own range of
   variables. *)
let search ?cycle_limits ?(budget = 2000) ?domains space =
  Obs.span "reduction.search" @@ fun () ->
  let num_nodes = State_space.num_nodes space in
  let key buf dest = (buf * num_nodes) + dest in
  let session = Bwg.Session.create ?domains space in
  let keys = ref [] and sizes = ref [] and targets = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest ->
      let { State_space.first; items } =
        (State_space.dest_view space ~dest).State_space.view_wts
      in
      let i = State_space.index space ~buf ~dest in
      if first.(i) < first.(i + 1) then begin
        keys := key buf dest :: !keys;
        sizes := (first.(i + 1) - first.(i)) :: !sizes;
        for p = first.(i) to first.(i + 1) - 1 do
          targets := items.(p) :: !targets
        done
      end);
  (* the states with waits, keys ascending *)
  let keys = Array.of_list (List.rev !keys) in
  (* the entries, states in key order and each in rule order *)
  let target = Array.of_list (List.rev !targets) in
  (* state s owns entries first.(s) .. first.(s + 1) - 1 *)
  let first = Array.make (Array.length keys + 1) 0 in
  List.iteri (fun s size -> first.(s + 1) <- first.(s) + size) (List.rev !sizes);
  let n = Array.length target in
  let owner = Array.make n 0 in
  for s = 0 to Array.length keys - 1 do
    Array.fill owner first.(s) (first.(s + 1) - first.(s)) s
  done;
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
    { head = keys.(s) / num_nodes; dest = keys.(s) mod num_nodes; target = target.(v) }
  in
  (* state [s]'s live entries *)
  let live_count s =
    let n = ref 0 in
    for v = first.(s) to first.(s + 1) - 1 do
      if live v then incr n
    done;
    !n
  in
  (* the live entry of state [s] waiting on [t] *)
  let var_of s t =
    let rec find v =
      if v >= first.(s + 1) then raise Not_found
      else if live v && target.(v) = t then v
      else find (v + 1)
    in
    find first.(s)
  in
  (* removed entries, most recent first: the report lists them in
     decision order *)
  let removals = ref [] in
  let assign v x =
    let { head = buf; dest; target } = entry v in
    if x = 1 then
      (* [v] already reads removed: refuse if it was the last live one *)
      if live_count owner.(v) = 0 then false
      else begin
        removals := v :: !removals;
        Bwg.Session.remove session ~buf ~dest target;
        true
      end
    else begin
      removals := List.filter (( <> ) v) !removals;
      Bwg.Session.restore session ~buf ~dest target;
      true
    end
  in
  let probe () =
    Obs.count "reduction.attempts" 1;
    true_cycle_status ?cycle_limits (Bwg.Session.bwg session)
  in
  let clause (_, packets) =
    ( List.map
        (fun (p : Cycle_class.packet) ->
          let head = List.hd (List.rev p.Cycle_class.path) in
          {
            Clause_search.var =
              var_of (state head p.Cycle_class.dest) p.Cycle_class.waits_for;
            value = 0;
          })
        packets,
      [] )
  in
  (* the cuts that leave every state they touch a wait *)
  let moves (cycle, _) =
    let edges = List.combine cycle (List.tl cycle @ [ List.hd cycle ]) in
    Seq.filter_map
      (fun (q, w) ->
        Obs.span "reduction.cuts" @@ fun () ->
        let states =
          List.map
            (fun { Bwg.head; dest } -> state head dest)
            (Bwg.Session.emitters session q w)
        in
        if List.for_all (fun s -> live_count s > 1) states then
          Some (List.map (fun s -> { Clause_search.var = var_of s w; value = 1 }) states)
        else None)
      (List.to_seq edges)
  in
  let outcome, stats =
    Clause_search.run ~budget ~arity:(fun _ -> 2) value { probe; clause; moves; assign }
  in
  let result =
    match outcome with
    | Clause_search.Found -> Reduced (List.rev_map entry !removals)
    | Clause_search.Exhausted -> Impossible
    | Clause_search.Gave_up reason -> Gave_up reason
  in
  (result, stats)
