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

(* occurrences of [w] in row [i] of [r] before position [stop] *)
let copies (r : State_space.rows) i w stop =
  let n = ref 0 in
  for p = r.State_space.first.(i) to stop - 1 do
    if r.State_space.items.(p) = w then incr n
  done;
  !n

(* The hint is the full rule narrowed: every wait entry its hint row does
   not match, copy for copy, is removed from the caller's session, which
   is probed and gets the removals back, noted for its next read. *)
let verify_hint ?cycle_limits session =
  let space = Bwg.Session.space session in
  match (State_space.algo space).Dfr_routing.Algo.reduced_waits with
  | None -> None
  | Some _ ->
    Obs.span "reduction.verify-hint" @@ fun () ->
    let removed = ref [] in
    for dest = 0 to State_space.num_nodes space - 1 do
      let v = State_space.dest_view space ~dest in
      let wts = v.State_space.view_wts and hint = Option.get v.State_space.view_hint in
      Array.iteri
        (fun i buf ->
          for p = wts.State_space.first.(i) to wts.State_space.first.(i + 1) - 1 do
            let w = wts.State_space.items.(p) in
            if copies wts i w (p + 1) > copies hint i w hint.State_space.first.(i + 1)
            then begin
              Bwg.Session.remove session ~buf ~dest w;
              removed := (buf, dest, w) :: !removed
            end
          done)
        v.State_space.view_bufs
    done;
    let bwg = Bwg.Session.bwg session in
    let verdict =
      if not (Bwg.is_wait_connected bwg) then
        Gave_up "reduced-waits hint is not wait-connected"
      else
        match true_cycle_status ?cycle_limits bwg with
        | Ok None -> Reduced []
        | Ok (Some _) -> Gave_up "reduced-waits hint still has a True Cycle"
        | Error reason -> Gave_up ("hint verification: " ^ reason)
    in
    List.iter (fun (buf, dest, w) -> Bwg.Session.restore session ~buf ~dest w) !removed;
    Some verdict

(* The search's variables, one per wait entry: state [s], the [s]-th in
   [iter_reachable] order, owns [first.(s)] .. [first.(s + 1) - 1] in
   rule order, and [key.(s)] is [buf * nodes + dest].  The pass visits a
   destination's states buffers ascending, as its slice lists them, so a
   cursor per destination is the slice position [i]; [slot.(dest).(i)]
   is the state there. *)
let variables space =
  let nodes = State_space.num_nodes space and states = State_space.num_states space in
  let rows =
    Array.init nodes (fun dest ->
        (State_space.dest_view space ~dest).State_space.view_wts)
  in
  let n = Array.fold_left (fun n r -> n + Array.length r.State_space.items) 0 rows in
  let first = Array.make (states + 1) 0 and key = Array.make states 0 in
  let slot = Array.map (fun r -> Array.make (Array.length r.State_space.first - 1) 0) rows in
  let target = Array.make n 0 and owner = Array.make n 0 in
  let cursor = Array.make nodes 0 and s = ref 0 in
  State_space.iter_reachable space (fun ~buf ~dest ->
      let i = cursor.(dest) and { State_space.first = row; items } = rows.(dest) in
      cursor.(dest) <- i + 1;
      let v0 = first.(!s) - row.(i) in
      for p = row.(i) to row.(i + 1) - 1 do
        target.(v0 + p) <- items.(p);
        owner.(v0 + p) <- !s
      done;
      first.(!s + 1) <- v0 + row.(i + 1);
      key.(!s) <- (buf * nodes) + dest;
      slot.(dest).(i) <- !s;
      incr s);
  (first, key, slot, target, owner)

(* Theorem 3 as a Clause_search problem over [variables], 0 live and 1
   removed.  [assign] removes or restores the entry in the caller's
   session, and the probe reads the session's BWG', which re-derives only
   the destinations touched since the last probe.

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
let search ?cycle_limits ?(budget = 2000) session =
  Obs.span "reduction.search" @@ fun () ->
  let space = Bwg.Session.space session in
  let nodes = State_space.num_nodes space in
  let first, key, slot, target, owner =
    Obs.span "reduction.setup" (fun () -> variables space)
  in
  let state buf dest = slot.(dest).(State_space.index space ~buf ~dest) in
  (* the search's assignment: 0 live, 1 removed *)
  let value = Array.make (Array.length target) 0 in
  let live v = value.(v) = 0 in
  let entry v =
    let k = key.(owner.(v)) in
    { head = k / nodes; dest = k mod nodes; target = target.(v) }
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
    Obs.span "reduction.probe" (fun () ->
        true_cycle_status ?cycle_limits (Bwg.Session.bwg session))
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
  (* only [Reduced] keeps its removals: a budget or decision-limit stop
     leaves the last assignment's *)
  if outcome <> Clause_search.Found then
    List.iter (fun v -> ignore (assign v 0 : bool)) !removals;
  let result =
    match outcome with
    | Clause_search.Found -> Reduced (List.rev_map entry !removals)
    | Clause_search.Exhausted -> Impossible
    | Clause_search.Gave_up reason -> Gave_up reason
  in
  (result, stats)
