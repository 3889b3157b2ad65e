(* The harness's own spans: recorded in memory around each call into the
   system under test, written once at the end as a Chrome trace_event
   document.  Traces the children wrote themselves (dfcheck --trace, the
   Dfr_obs collector of a harness child) are folded in under the span
   that spawned them, on a track of their own. *)

module Json = Dfr_util.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 at top level *)
  req : int option;  (** request / operation index *)
  start_us : float;
  end_us : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable foreign : Json.t list;  (** child events, already re-based *)
  mutable tracks : int;
}

let create ~enabled =
  { enabled; origin = Proc.now (); spans = []; stack = []; next = 1; foreign = []; tracks = 0 }

let now_us t = (Proc.now () -. t.origin) *. 1e6
let current t = match t.stack with id :: _ -> id | [] -> 0

let span t ?req name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = current t and start_us = now_us t in
    t.stack <- id :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; parent; req; start_us; end_us = now_us t } :: t.spans)
      f
  end

(* A span whose interval the caller measured: requests that overlap in
   flight cannot nest on a stack. *)
let record t ?req name ~start_us ~end_us =
  if t.enabled then begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; parent = current t; req; start_us; end_us } :: t.spans
  end

(* Fold in a child's trace file, its timestamps counted from [start_us]
   (when the child was spawned), tagged with the causing span. *)
let adopt t ~start_us ~label file =
  if t.enabled && Sys.file_exists file then
    match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Error _ -> ()
    | Ok doc ->
      t.tracks <- t.tracks + 1;
      let pid = t.tracks and parent = current t in
      let events =
        Option.value ~default:[] (Option.bind (Json.member "traceEvents" doc) Json.to_list)
      in
      let rebase = function
        | Json.Obj fields ->
          Json.Obj
            (List.map
               (function
                 | "ts", Json.Int i -> ("ts", Json.Float (start_us +. float_of_int i))
                 | "ts", Json.Float f -> ("ts", Json.Float (start_us +. f))
                 | "pid", _ -> ("pid", Json.Int pid)
                 | "args", Json.Obj a -> ("args", Json.Obj (("caused_by", Json.Int parent) :: a))
                 | kv -> kv)
               fields)
        | j -> j
      in
      t.foreign <-
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("args", Json.Obj [ ("name", Json.String label) ]);
          ]
        :: List.rev_append (List.rev_map rebase events) t.foreign

let to_json ?(extra = []) t =
  let ev s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", Json.Float s.start_us);
        ("dur", Json.Float (s.end_us -. s.start_us));
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ( "args",
          Json.Obj
            ([ ("span", Json.Int s.id); ("parent", Json.Int s.parent) ]
            @ match s.req with Some r -> [ ("req", Json.Int r) ] | None -> []) );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev_map ev t.spans @ List.rev t.foreign @ extra));
      ("displayTimeUnit", Json.String "ms");
    ]

(* The Dfr_obs collector's events, for a child that enabled it. *)
let obs_events () =
  Option.value ~default:[]
    (Option.bind (Json.member "traceEvents" (Dfr_obs.Obs.trace_json ())) Json.to_list)

let write ?extra t file =
  Out_channel.with_open_bin file (fun oc -> output_string oc (Json.to_string (to_json ?extra t)))

(* Durations of every span called [name], in ms. *)
let durations_ms t name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.end_us -. s.start_us) /. 1000.) else None)
    t.spans
