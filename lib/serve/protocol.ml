open Dfr_util

type request =
  | Check of Dfr_ops.Ops.source
  | Check_delta of { base : string; spec : string }
  | Scenario of { source : Dfr_ops.Ops.source; plan : string; sweep : bool }
  | Catalogue
  | Stats
  | Ping
  | Sleep of { ms : int }
  | Shutdown

type parsed = { id : Json.t option; req : request }

let max_sleep_ms = 60_000

(* an inline spec wins over a named algorithm *)
let source doc =
  match Option.bind (Json.member "spec" doc) Json.to_str with
  | Some spec -> Some (Dfr_ops.Ops.Spec (Dfr_ops.Ops.Text spec))
  | None ->
    Option.map
      (fun algo ->
        let topology = Option.bind (Json.member "topology" doc) Json.to_str in
        Dfr_ops.Ops.Named { algo; topology })
      (Option.bind (Json.member "algo" doc) Json.to_str)

let parse line =
  match Json.of_string line with
  | Error msg -> Error (None, "invalid JSON: " ^ msg)
  | Ok doc -> (
    let id = Json.member "id" doc in
    let err msg = Error (id, msg) in
    match doc with
    | Json.Obj _ -> (
      match Option.bind (Json.member "op" doc) Json.to_str with
      | None -> err "missing or non-string \"op\""
      | Some "check" -> (
        match source doc with
        | Some source -> Ok { id; req = Check source }
        | None -> err "op \"check\" needs a \"spec\" or an \"algo\" field")
      | Some "check_delta" -> (
        match
          ( Option.bind (Json.member "base" doc) Json.to_str,
            Option.bind (Json.member "spec" doc) Json.to_str )
        with
        | Some base, Some spec -> Ok { id; req = Check_delta { base; spec } }
        | None, _ -> err "op \"check_delta\" needs a string \"base\" digest"
        | _, None -> err "op \"check_delta\" needs a \"spec\" field")
      | Some "scenario" -> (
        match Option.bind (Json.member "plan" doc) Json.to_str with
        | None -> err "op \"scenario\" needs a \"plan\" field (plan-file text)"
        | Some plan -> (
          let sweep =
            match Option.bind (Json.member "mode" doc) Json.to_str with
            | Some "sequence" -> Ok false
            | Some "sweep" | None -> Ok true
            | Some m ->
              Error (Printf.sprintf "unknown scenario mode %S (sweep|sequence)" m)
          in
          match sweep with
          | Error msg -> err msg
          | Ok sweep -> (
            match source doc with
            | None -> err "op \"scenario\" needs a \"spec\" or an \"algo\" field"
            | Some source -> Ok { id; req = Scenario { source; plan; sweep } })))
      | Some "catalogue" -> Ok { id; req = Catalogue }
      | Some "stats" -> Ok { id; req = Stats }
      | Some "ping" -> Ok { id; req = Ping }
      | Some "sleep" -> (
        match Option.bind (Json.member "ms" doc) Json.to_int with
        | Some ms when ms >= 0 && ms <= max_sleep_ms -> Ok { id; req = Sleep { ms } }
        | _ ->
          err (Printf.sprintf "op \"sleep\" needs \"ms\" in 0..%d" max_sleep_ms))
      | Some "shutdown" -> Ok { id; req = Shutdown }
      | Some op -> err (Printf.sprintf "unknown op %S" op))
    | _ -> err "request must be a JSON object")

(* ------------------------------------------------------------------ *)
(* responses                                                           *)

let with_id ~id fields =
  match id with Some v -> ("id", v) :: fields | None -> fields

let ok_response ~id ~op fields =
  Json.Obj (with_id ~id (("ok", Json.Bool true) :: ("op", Json.String op) :: fields))

let error_response ~id ~kind msg =
  Json.Obj
    (with_id ~id
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [ ("kind", Json.String kind); ("message", Json.String msg) ] );
       ])

let refusal ~id (e : Dfr_ops.Ops.error) =
  let kind, msg =
    match e with
    | Dfr_ops.Ops.Bad_request m -> ("bad_request", m)
    | Dfr_ops.Ops.Bad_spec m -> ("spec", m)
    | Dfr_ops.Ops.Check_failed m -> ("check", m)
  in
  error_response ~id ~kind msg

let check_response ~id ~cached ~digest ~exit_code ~report =
  ok_response ~id ~op:"check"
    [
      ("cached", Json.Bool cached);
      ("digest", Json.String digest);
      ("exit", Json.Int exit_code);
      ("report", report);
    ]

let check_delta_response ~id ~digest ~exit_code ~report ~delta =
  ok_response ~id ~op:"check_delta"
    [
      ("digest", Json.String digest);
      ("exit", Json.Int exit_code);
      ("report", report);
      ("delta", delta);
    ]
