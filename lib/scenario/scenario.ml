open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim
module Obs = Dfr_obs.Obs

let preloads_of_knot config =
  List.map
    (fun (buf, dest) ->
      { Drive.chain = [ buf ]; dest; frozen = false })
    config

let preloads_of_true_cycle space packets =
  let occupied = Hashtbl.create 64 in
  List.iter
    (fun (p : Cycle_class.packet) ->
      List.iter (fun b -> Hashtbl.replace occupied b ()) p.Cycle_class.path)
    packets;
  let cycle_preloads =
    List.map
      (fun (p : Cycle_class.packet) ->
        {
          Drive.chain = p.Cycle_class.path;
          dest = p.Cycle_class.dest;
          frozen = false;
        })
      packets
  in
  (* Freeze a filler into every still-free output of each blocked header,
     so the cycle packets genuinely cannot sidestep (Theorem 2's previous
     packets of tuned length). *)
  let fillers = ref [] in
  let add_filler b =
    if not (Hashtbl.mem occupied b) then begin
      Hashtbl.replace occupied b ();
      (* any destination gives the filler a consistent identity; frozen
         packets never consult the routing relation *)
      let dest =
        let head = Buf.head_node (Net.buffer (State_space.net space) b) in
        (head + 1) mod State_space.num_nodes space
      in
      fillers := { Drive.chain = [ b ]; dest; frozen = true } :: !fillers
    end
  in
  List.iter
    (fun (p : Cycle_class.packet) ->
      match List.rev p.Cycle_class.path with
      | [] -> ()
      | head :: _ ->
        (* the head's outputs, in route order *)
        let dest = p.Cycle_class.dest in
        let v = State_space.dest_view space ~dest in
        let i = State_space.index space ~buf:head ~dest in
        let { State_space.first; items } = v.State_space.view_outs in
        for p = first.(i) to first.(i + 1) - 1 do
          add_filler v.State_space.view_bufs.(items.(p))
        done)
    packets;
  cycle_preloads @ !fillers

let replay ?space net algo failure =
  let run_preloaded =
    match Net.switching net with
    | Net.Wormhole -> Wormhole_sim.run_preloaded net algo
    | Net.Store_and_forward | Net.Virtual_cut_through ->
      Saf_sim.run_preloaded net algo
  in
  let preloads =
    match failure with
    | Checker.Knot config -> Some (preloads_of_knot config)
    | Checker.True_cycle { packets; _ } | Checker.No_reduction { packets; _ } ->
      let space =
        match space with Some s -> s | None -> State_space.build net algo
      in
      Some (preloads_of_true_cycle space packets)
    | Checker.Stuck_states _ | Checker.Not_wait_connected _ -> None
  in
  Option.map (fun p -> Drive.is_deadlocked (run_preloaded p)) preloads

(* ------------------------------------------------------------------ *)
(* fault campaigns                                                     *)

module Json = Dfr_util.Json

type classification =
  | Still_free
  | Deadlocked of { kind : string; cycle : string list }
  | Disconnected of (int * int list) list
  | Undetermined of string

type outcome = {
  at : int;
  label : string;
  killed : int list;
  classification : classification;
  report : Json.t;
  exit_code : int;
}

type campaign = {
  network : string;
  algorithm : string;
  plan_name : string option;
  seed : int;
  mode : [ `Sweep | `Sequence ];
  baseline : Json.t;
  baseline_exit : int;
  space : State_space.t;  (** the pristine baseline space *)
  outcomes : outcome list;
  exit_code : int;
}

(* The channel buffers a node kill rips out along with the node — the
   killed set the disconnection classifier disables on the baseline
   graphs. *)
let adjacent_channels net dead =
  List.filter_map
    (fun b ->
      match Buf.kind b with
      | Buf.Channel c when List.mem c.src dead || List.mem c.dst dead ->
        Some (Buf.id b)
      | _ -> None)
    (Array.to_list (Net.buffers net))

(* Classify one degraded verdict.  Disconnection refines a stuck-states
   deadlock report: routing dead-ends caused by severed reachability are
   "the fault cut the network", not "the algorithm deadlocks".  Everything
   here is a pure function of the baseline space, the killed set and the
   (byte-stable) report, so incremental and cold campaigns classify
   identically. *)
let classify space ~degraded ~report ~exit_code =
  let summary () =
    match Report_json.of_string (Json.to_string report) with
    | Ok s -> Some s
    | Error _ -> None
  in
  if exit_code = 0 then Still_free
  else if exit_code <> 1 then
    Undetermined
      (match summary () with
      | Some s -> s.Report_json.result
      | None -> "unparseable report")
  else begin
    let kind, cycle =
      match summary () with
      | Some s ->
        ( Option.value ~default:"deadlock" s.Report_json.failure_kind,
          s.Report_json.cycle )
      | None -> ("deadlock", [])
    in
    if kind <> "stuck-states" then Deadlocked { kind; cycle }
    else begin
      let nodes n = List.init n (fun i -> i) in
      let n = State_space.num_nodes space in
      let pairs =
        match degraded with
        | Degrade.Filtered { killed; dirty; _ } ->
          Degrade.disconnections space ~killed ~dests:dirty
            ~sources:(nodes n)
        | Degrade.Rebuilt { killed_nodes; killed; _ } ->
          let net = State_space.net space in
          let alive =
            List.filter (fun v -> not (List.mem v killed_nodes)) (nodes n)
          in
          let killed =
            List.sort_uniq compare (adjacent_channels net killed_nodes @ killed)
          in
          let dead_entries =
            List.filter_map
              (fun d ->
                match
                  List.filter
                    (fun s ->
                      State_space.is_reachable space
                        ~buf:(Buf.id (Net.injection net s))
                        ~dest:d)
                    alive
                with
                | [] -> None
                | srcs -> Some (d, srcs))
              killed_nodes
          in
          List.sort
            (fun (d1, _) (d2, _) -> compare d1 d2)
            (dead_entries
            @ Degrade.disconnections space ~killed ~dests:alive ~sources:alive)
      in
      if pairs = [] then Deadlocked { kind; cycle } else Disconnected pairs
    end
  end

(* Sorted-union of two ascending destination lists (the frontier for an
   incremental move from one killed set to another). *)
let rec merge_dirty a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
    if x < y then x :: merge_dirty xs b
    else if y < x then y :: merge_dirty a ys
    else x :: merge_dirty xs ys

let label_of net faults =
  String.concat "; " (List.map (Fault.describe net) faults)

let campaign ?(domains = 1) ?(cold = false) ~mode net algo (plan : Fault.t) =
  Obs.span "scenario.campaign" @@ fun () ->
  let ( let* ) = Result.bind in
  let* steps = Fault.expand plan net in
  (* Sweep checks every fault independently; Sequence replays the plan's
     timeline, one re-check per tick, faults accumulating. *)
  let groups =
    match mode with
    | `Sweep ->
      List.map (fun (s : Fault.step) -> (s.Fault.at, [ s.Fault.fault ], [ s.Fault.fault ])) steps
    | `Sequence ->
      let sorted =
        List.stable_sort
          (fun (a : Fault.step) b -> compare a.Fault.at b.Fault.at)
          steps
      in
      let rec batches acc = function
        | [] -> List.rev acc
        | (s : Fault.step) :: _ as rest ->
          let now, later =
            List.partition (fun (x : Fault.step) -> x.Fault.at = s.Fault.at) rest
          in
          let fresh = List.map (fun (x : Fault.step) -> x.Fault.fault) now in
          batches ((s.Fault.at, fresh) :: acc) later
      in
      let rec accumulate sofar = function
        | [] -> []
        | (at, fresh) :: rest ->
          let cum = sofar @ fresh in
          (at, fresh, cum) :: accumulate cum rest
      in
      accumulate [] (batches [] sorted)
  in
  let killed_of = function
    | Degrade.Filtered { killed; _ } -> killed
    | Degrade.Rebuilt { killed; killed_nodes; _ } ->
      (* report the old-skeleton resources lost: the explicit kills plus
         every channel of the killed nodes *)
      List.sort_uniq compare
        (killed
        @ List.concat_map (fun v -> adjacent_channels net [ v ]) killed_nodes)
  in
  let render net algo r =
    (Report_json.of_outcome net algo r, Report_json.exit_code r.Checker.verdict)
  in
  let cold_check net algo = render net algo (Checker.check ~domains net algo) in
  (* the baseline, and how a [Filtered] step is re-checked: one Incr
     session updated on the merged frontier, or a cold check.  [space]
     stays the pristine baseline for frontiers and Reach ([Incr.update]
     replaces the session's space with column copies). *)
  let (baseline, baseline_exit), space, recheck =
    if cold then
      let rep = Checker.check ~domains net algo in
      (render net algo rep, rep.Checker.space, fun algo' ~dirty:_ -> cold_check net algo')
    else
      let session, base = Incr.create ~domains net algo in
      let session_dirty = ref [] in
      ( (base.Incr.report, base.Incr.exit_code),
        Incr.space session,
        fun algo' ~dirty ->
          let r =
            Incr.update session algo' ~dirty:(merge_dirty !session_dirty dirty)
          in
          session_dirty := dirty;
          (r.Incr.report, r.Incr.exit_code) )
  in
  let* outcomes =
    List.fold_left
      (fun acc (at, fresh, faults) ->
        let* acc = acc in
        Obs.span "scenario.step" @@ fun () ->
        let* degraded = Degrade.apply space faults in
        let report, exit_code =
          match degraded with
          | Degrade.Filtered { algo = algo'; dirty; _ } -> recheck algo' ~dirty
          | Degrade.Rebuilt { net = net'; algo = algo'; _ } ->
            (* skeleton change: the session cannot absorb it (the same
               situation Diff reports as Incompatible) — cold in both
               modes *)
            cold_check net' algo'
        in
        let classification = classify space ~degraded ~report ~exit_code in
        Ok
          ({
             at;
             label = label_of net fresh;
             killed = killed_of degraded;
             classification;
             report;
             exit_code;
           }
          :: acc))
      (Ok []) groups
  in
  let outcomes = List.rev outcomes in
  Ok
    {
      network = Net.name net;
      algorithm = algo.Algo.name;
      plan_name = plan.Fault.name;
      seed = plan.Fault.seed;
      mode;
      baseline;
      baseline_exit;
      space;
      outcomes;
      exit_code =
        List.fold_left (fun acc (o : outcome) -> max acc o.exit_code) baseline_exit outcomes;
    }

let classification_json = function
  | Still_free -> [ ("class", Json.String "free") ]
  | Deadlocked { kind; cycle } ->
    [
      ("class", Json.String "deadlock");
      ("kind", Json.String kind);
      ("cycle", Json.List (List.map (fun c -> Json.String c) cycle));
    ]
  | Disconnected pairs ->
    [
      ("class", Json.String "disconnected");
      ( "disconnected",
        Json.List
          (List.map
             (fun (dest, srcs) ->
               Json.Obj
                 [
                   ("dest", Json.Int dest);
                   ("sources", Json.List (List.map (fun s -> Json.Int s) srcs));
                 ])
             pairs) );
    ]
  | Undetermined reason ->
    [ ("class", Json.String "unknown"); ("reason", Json.String reason) ]

(* NOTE: nothing in this envelope says whether a fault took the
   incremental or the cold path — the two are byte-identical by
   construction and the determinism tests diff them. *)
let campaign_to_json c =
  Json.Obj
    [
      ("network", Json.String c.network);
      ("algorithm", Json.String c.algorithm);
      ( "plan",
        match c.plan_name with None -> Json.Null | Some n -> Json.String n );
      ("seed", Json.Int c.seed);
      ( "mode",
        Json.String (match c.mode with `Sweep -> "sweep" | `Sequence -> "sequence")
      );
      ( "baseline",
        Json.Obj [ ("exit", Json.Int c.baseline_exit); ("report", c.baseline) ]
      );
      ( "faults",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 ([
                    ("at", Json.Int o.at);
                    ("label", Json.String o.label);
                    ("killed", Json.List (List.map (fun k -> Json.Int k) o.killed));
                  ]
                 @ classification_json o.classification
                 @ [ ("exit", Json.Int o.exit_code); ("report", o.report) ]))
             c.outcomes) );
      ("exit", Json.Int c.exit_code);
    ]

(* ------------------------------------------------------------------ *)
(* deadlock-seeking traffic                                            *)

let seeking_traffic space ~length failure =
  let net = State_space.net space in
  let of_chain chain dest =
    match chain with
    | [] -> []
    | first :: _ ->
      let src = Buf.source_node (Net.buffer net first) in
      if src = dest then [] else Traffic.scripted ~src ~dst:dest ~length chain
  in
  match failure with
  | Checker.True_cycle { packets; _ } | Checker.No_reduction { packets; _ } -> (
    match
      List.concat_map
        (fun (p : Cycle_class.packet) ->
          of_chain p.Cycle_class.path p.Cycle_class.dest)
        packets
    with
    | [] -> None
    | ps -> Some ps)
  | Checker.Knot states -> (
    match
      List.concat_map (fun (buf, dest) -> of_chain [ buf ] dest) states
    with
    | [] -> None
    | ps -> Some ps)
  | Checker.Stuck_states _ | Checker.Not_wait_connected _ -> None
