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
    let bwg = Bwg.build ~wait_sets space in
    if not (Bwg.is_wait_connected bwg) then
      Some (Gave_up "reduced-waits hint is not wait-connected")
    else (
      match true_cycle_status ?cycle_limits ?class_limits bwg with
      | Ok None -> Some (Reduced (bwg, []))
      | Ok (Some _) -> Some (Gave_up "reduced-waits hint still has a True Cycle")
      | Error reason -> Some (Gave_up ("hint verification: " ^ reason)))

(* Wait entries that generate BWG edge q -> w: pairs (head, dest) with
   [w] in the current waiting set of (head, dest) and [head] reachable
   from [q] by a continuation (wormhole) or equal to [q] (SAF/VCT). *)
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
  !acc

let search ?cycle_limits ?class_limits ?(budget = 2000) space =
  Obs.span "reduction.search" @@ fun () ->
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  let num_nodes = State_space.num_nodes space in
  (* mutable copy of the waiting rule, indexed like the state space *)
  let table = Hashtbl.create 256 in
  State_space.iter_reachable space (fun ~buf ~dest ->
      let ws = State_space.waits space ~buf ~dest in
      if ws <> [] then Hashtbl.replace table ((buf * num_nodes) + dest) ws);
  let current ~buf ~dest =
    Option.value (Hashtbl.find_opt table ((buf * num_nodes) + dest)) ~default:[]
  in
  let removed = ref [] in
  let remaining = ref budget in
  let uncertain = ref None in
  let exception Success of Bwg.t in
  let rec attempt () =
    if !remaining <= 0 then uncertain := Some "reduction budget exhausted"
    else begin
      decr remaining;
      Obs.count "reduction.attempts" 1;
      let bwg = Bwg.build ~wait_sets:current space in
      match true_cycle_status ?cycle_limits ?class_limits bwg with
      | Error reason -> uncertain := Some reason
      | Ok None -> raise (Success bwg)
      | Ok (Some (cycle, _)) ->
        let first = List.hd cycle in
        let edges =
          let rec pair = function
            | [ last ] -> [ (last, first) ]
            | a :: (b :: _ as rest) -> (a, b) :: pair rest
            | [] -> assert false
          in
          pair cycle
        in
        let try_edge (q, w) =
          let entries = generating_entries space current ~wormhole q w in
          (* an entry is removable only if its state keeps another wait *)
          let removable =
            List.for_all
              (fun (h, d) -> List.length (current ~buf:h ~dest:d) > 1)
              entries
          in
          if removable && entries <> [] then begin
            let saved =
              List.map (fun (h, d) -> ((h, d), current ~buf:h ~dest:d)) entries
            in
            List.iter
              (fun (h, d) ->
                Hashtbl.replace table
                  ((h * num_nodes) + d)
                  (List.filter (fun x -> x <> w) (current ~buf:h ~dest:d)))
              entries;
            removed := List.map (fun (h, d) -> { head = h; dest = d; target = w }) entries @ !removed;
            attempt ();
            (* backtrack *)
            removed :=
              List.filter
                (fun r -> not (List.exists (fun (h, d) -> r.head = h && r.dest = d && r.target = w) entries))
                !removed;
            List.iter (fun ((h, d), ws) -> Hashtbl.replace table ((h * num_nodes) + d) ws) saved
          end
        in
        List.iter try_edge edges
    end
  in
  try
    attempt ();
    match !uncertain with
    | Some reason -> Gave_up reason
    | None -> Impossible
  with Success bwg -> Reduced (bwg, List.rev !removed)
