open Dfr_util
open Dfr_network
open Dfr_routing
open Dfr_core
module Traffic = Dfr_sim.Traffic
module Fault = Dfr_scenario.Fault
module Degrade = Dfr_scenario.Degrade
module Latency = Dfr_scenario.Latency
module Scenario = Dfr_scenario.Scenario

type error = Bad_request of string | Bad_spec of string | Check_failed of string

let message (Bad_request m | Bad_spec m | Check_failed m) = m
let ( let* ) = Result.bind

type input = Text of string | File of string
type source = Named of { algo : string; topology : string option } | Spec of input
type instance = { net : Net.t; algo : Algo.t }

(* A network the spec declares but [Net.custom] refuses to build (a
   buffer count past the array limit) is a spec error too. *)
let compile input =
  let file = match input with Text _ -> None | File f -> Some f in
  match
    match input with
    | Text src -> Dfr_spec.Spec.compile_string src
    | File f -> Dfr_spec.Spec.load_file f
  with
  | Ok s -> Ok s
  | Error e -> Error (Bad_spec (Dfr_spec.Spec.error_to_string ?file e))
  | exception Invalid_argument msg ->
    let where = match file with Some f -> f ^ ": " | None -> "" in
    Error (Bad_spec (Printf.sprintf "%scannot build the network: %s" where msg))

let instance = function
  | Spec input ->
    let* s = compile input in
    Ok { net = s.Dfr_spec.Spec.net; algo = s.Dfr_spec.Spec.algo }
  | Named { algo; topology } -> (
    match Registry.find algo with
    | None ->
      Error
        (Bad_request
           (Printf.sprintf "unknown algorithm %S; known: %s" algo
              (String.concat ", " (Registry.names ()))))
    | Some e -> (
      let* topo =
        match topology with
        | None -> Ok None
        | Some s -> (
          match Dfr_topology.Topology.of_string s with
          | Ok t -> Ok (Some t)
          | Error msg -> Error (Bad_request msg))
      in
      match Registry.network_for e topo with
      | net -> Ok { net; algo = e.Registry.algo }
      | exception Invalid_argument msg -> Error (Bad_request msg)))

let check ~domains i =
  Result.map_error (fun m -> Check_failed m) (Checker.check_result ~domains i.net i.algo)

let catalogue () =
  Json.List
    (List.map
       (fun (e : Registry.entry) ->
         Json.Obj
           [
             ("name", Json.String e.Registry.name);
             ( "expected_deadlock_free",
               match e.Registry.expected_deadlock_free with
               | Some b -> Json.Bool b
               | None -> Json.Null );
             ("description", Json.String e.Registry.description);
             ( "default_topology",
               match Registry.default_topology e with
               | Some t -> Json.String (Dfr_topology.Topology.name t)
               | None -> Json.Null );
           ])
       Registry.all)

(* ------------------------------------------------------------------ *)
(* incremental re-checks                                               *)

type session = { incr : Incr.t; validated : Dfr_spec.Validate.t }
type fallback = No_session | Incompatible of string | Refused of string
type path = Fast | Replay | Cold of fallback
type delta = { result : Incr.result; path : path; session : session }

let validated (s : Dfr_spec.Spec.t) = s.Dfr_spec.Spec.elaborated.Dfr_spec.Elaborate.spec

let session ~domains (s : Dfr_spec.Spec.t) =
  match Incr.create ~domains s.Dfr_spec.Spec.net s.Dfr_spec.Spec.algo with
  | incr, result -> Ok ({ incr; validated = validated s }, result)
  | exception Invalid_argument msg -> Error (Check_failed msg)

let delta ~domains live edit =
  let cold why =
    let* session, result = session ~domains edit in
    Ok { result; path = Cold why; session }
  in
  match live with
  | None -> cold No_session
  | Some live -> (
    match Dfr_spec.Diff.diff live.validated (validated edit) with
    | Dfr_spec.Diff.Incompatible reason -> cold (Incompatible reason)
    | Dfr_spec.Diff.Frontier f -> (
      let dirty = f.Dfr_spec.Diff.dirty in
      match Incr.update live.incr edit.Dfr_spec.Spec.algo ~dirty with
      | exception Invalid_argument msg -> cold (Refused msg)
      | result ->
        let path = match result.Incr.path with Incr.Fast -> Fast | Incr.Replay -> Replay in
        Ok { result; path; session = { live with validated = validated edit } }))

let path_name = function Fast -> "fast" | Replay -> "replay" | Cold _ -> "cold"

(* ------------------------------------------------------------------ *)
(* fault campaigns                                                     *)

type workload =
  | Pattern of Traffic.pattern
  | Bursty of int
  | Storm of int list
  | Permutation
  | Seeking

type load = { rate : float; length : int; horizon : int; seed : int }

type scenario = {
  campaign : Scenario.campaign;
  doc : Json.t;
  exit_code : int;
}

(* The degraded instance left standing after the whole plan — what the
   traffic and latency stages run against. *)
let final_instance (c : Scenario.campaign) i plan =
  match Fault.expand plan i.net with
  | Error msg -> Error (Bad_request msg)
  | Ok [] -> Ok i
  | Ok steps -> (
    let faults = List.map (fun (s : Fault.step) -> s.Fault.fault) steps in
    match Degrade.apply c.Scenario.space faults with
    | Error msg -> Error (Bad_request msg)
    | Ok (Degrade.Filtered { algo; _ }) -> Ok { i with algo }
    | Ok (Degrade.Rebuilt { net; algo; _ }) -> Ok { net; algo })

(* Generator validation errors (zero-length packets, an empty or
   out-of-range storm destination set) raise [Invalid_argument]. *)
let packets ~report net (w, l) =
  let topo () =
    match Net.topology net with
    | Some t -> t
    | None ->
      invalid_arg
        "this traffic kind needs a topology-backed network (the plan's node \
         kills rebuild a custom network)"
  in
  let { rate; length; horizon; seed } = l in
  match w with
  | Pattern p -> Traffic.generate (topo ()) ~pattern:p ~rate ~length ~horizon ~seed
  | Bursty burst ->
    Traffic.bursty (topo ()) ~pattern:Traffic.Uniform ~burst ~rate ~length ~horizon ~seed
  | Storm dests -> Traffic.storm (topo ()) ~dests ~rate ~length ~horizon ~seed
  | Permutation -> Traffic.permutation (topo ()) ~count:1 ~length ~seed
  | Seeking -> (
    let report = Lazy.force report in
    match report.Checker.verdict with
    | Checker.Deadlock_possible failure -> (
      match Scenario.seeking_traffic report.Checker.space ~length failure with
      | Some t -> t
      | None ->
        invalid_arg
          "the final verdict's failure carries no packet configuration to aim \
           traffic at")
    | _ ->
      invalid_arg
        "--traffic seeking needs a deadlock verdict on the final degraded instance")

let bounds (report : Checker.report) packets =
  match report.Checker.verdict with
  | Checker.Deadlock_free _ ->
    Latency.analyze report.Checker.space report.Checker.bwg packets
  | _ ->
    {
      Latency.defined = false;
      reason = Some "the final degraded instance is not deadlock-free";
      packets = 0;
      components = 0;
      largest_component = 0;
      p50 = 0;
      p99 = 0;
      p100 = 0;
    }

(* The traffic and latency stages: extra document fields and the exit
   code they raise the campaign's to. *)
let stages ~domains ?traffic ~latency c i plan =
  let* fin = final_instance c i plan in
  (* one cold check of the final instance feeds the seeking workload and
     the latency analyzer *)
  let report = lazy (Checker.check ~domains fin.net fin.algo) in
  match Option.map (packets ~report fin.net) traffic with
  | exception Invalid_argument msg -> Error (Bad_request msg)
  | workload ->
    let sim = Option.map (Dfr_sim.Sim.run fin.net fin.algo) workload in
    let latency_field =
      if not latency then []
      else
        let b = bounds (Lazy.force report) (Option.value workload ~default:[]) in
        match (Latency.to_json b, sim) with
        | Json.Obj fields, Some { Dfr_sim.Sim.p100 = Some observed; _ } ->
          [
            ( "latency",
              Json.Obj
                (fields
                @ [
                    ("observed_p100", Json.Int observed);
                    ( "sound",
                      Json.Bool ((not b.Latency.defined) || b.Latency.p100 >= observed) );
                  ]) );
          ]
        | j, _ -> [ ("latency", j) ]
    in
    let traffic_field, deadlocked =
      match sim with
      | None -> ([], false)
      | Some s -> ([ ("traffic", s.Dfr_sim.Sim.report) ], s.Dfr_sim.Sim.deadlocked)
    in
    Ok (traffic_field @ latency_field, if deadlocked then 1 else 0)

let scenario ?(cold = false) ?traffic ?(latency = false) ~domains ~mode i plan =
  let* plan =
    Result.map_error
      (fun msg -> Bad_request ("plan: " ^ msg))
      (match plan with Text t -> Fault.parse t | File f -> Fault.load_file f)
  in
  match Scenario.campaign ~domains ~cold ~mode i.net i.algo plan with
  | exception Invalid_argument msg -> Error (Check_failed msg)
  | Error msg -> Error (Bad_request msg)
  | Ok c ->
    let* extra, sim_exit =
      if traffic = None && not latency then Ok ([], 0)
      else stages ~domains ?traffic ~latency c i plan
    in
    let doc =
      match Scenario.campaign_to_json c with
      | Json.Obj fields -> Json.Obj (fields @ extra)
      | j -> j
    in
    Ok { campaign = c; doc; exit_code = max c.Scenario.exit_code sim_exit }
