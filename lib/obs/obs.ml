open Dfr_util

type event = {
  name : string;
  start_us : float; (* relative to the collector's epoch *)
  dur_us : float;
  domain : int;
  depth : int;
}

type collector = {
  mutable events : event list; (* most recent first *)
  counters : (string, int) Hashtbl.t;
  counter_calls : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  mutex : Mutex.t;
  epoch : float;
  epoch_wall_us : float;
      (* wall clock captured at [enable], so trace consumers can place the
         monotonic timeline in calendar time without the timestamps
         themselves ever stepping *)
}

(* One global slot.  Probes read it with a single [Atomic.get]; [None]
   (the default) makes every probe a near-free no-op. *)
let state : collector option Atomic.t = Atomic.make None

(* Span timestamps come from CLOCK_MONOTONIC, not [Unix.gettimeofday]:
   an NTP step mid-run would otherwise move the wall clock under an open
   span and export negative durations (Chrome's trace viewer renders
   those as zero-width events at the wrong offset).  Monotonic readings
   never go backwards, which the obs test suite pins. *)
let now_us () = Int64.to_float (Monotime.now_ns ()) *. 1e-3

let enable () =
  Atomic.set state
    (Some
       {
         events = [];
         counters = Hashtbl.create 32;
         counter_calls = Hashtbl.create 32;
         gauges = Hashtbl.create 16;
         mutex = Mutex.create ();
         epoch = now_us ();
         epoch_wall_us = Unix.gettimeofday () *. 1e6;
       })

let disable () = Atomic.set state None
let enabled () = Atomic.get state <> None

(* Nesting depth is tracked per domain: spans recorded inside a spawned
   worker nest relative to that worker, not to the spawning domain. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let locked c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let span name f =
  match Atomic.get state with
  | None -> f ()
  | Some c ->
    let d = Domain.DLS.get depth_key in
    let depth = !d in
    d := depth + 1;
    let t0 = now_us () in
    let record () =
      let t1 = now_us () in
      d := depth;
      let ev =
        {
          name;
          start_us = t0 -. c.epoch;
          dur_us = t1 -. t0;
          domain = (Domain.self () :> int);
          depth;
        }
      in
      locked c (fun () -> c.events <- ev :: c.events)
    in
    Fun.protect ~finally:record f

let count name n =
  match Atomic.get state with
  | None -> ()
  | Some c ->
    locked c (fun () ->
        let cur = Option.value (Hashtbl.find_opt c.counters name) ~default:0 in
        Hashtbl.replace c.counters name (cur + n);
        let calls = Option.value (Hashtbl.find_opt c.counter_calls name) ~default:0 in
        Hashtbl.replace c.counter_calls name (calls + 1))

let gauge name v =
  match Atomic.get state with
  | None -> ()
  | Some c -> locked c (fun () -> Hashtbl.replace c.gauges name v)

(* ------------------------------------------------------------------ *)
(* reading                                                             *)

let sorted_bindings tbl =
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters () =
  match Atomic.get state with
  | None -> []
  | Some c -> locked c (fun () -> sorted_bindings c.counters)

let counter_calls () =
  match Atomic.get state with
  | None -> []
  | Some c -> locked c (fun () -> sorted_bindings c.counter_calls)

let gauges () =
  match Atomic.get state with
  | None -> []
  | Some c -> locked c (fun () -> sorted_bindings c.gauges)

let events () =
  match Atomic.get state with
  | None -> []
  | Some c ->
    let evs = locked c (fun () -> c.events) in
    (* chronological, ties broken by depth so a parent precedes the
       children that started in the same clock tick *)
    List.sort
      (fun a b ->
        match compare a.start_us b.start_us with
        | 0 -> compare a.depth b.depth
        | n -> n)
      evs

let span_totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let n, total =
        Option.value (Hashtbl.find_opt tbl ev.name) ~default:(0, 0.0)
      in
      Hashtbl.replace tbl ev.name (n + 1, total +. ev.dur_us))
    (events ());
  sorted_bindings tbl

(* ------------------------------------------------------------------ *)
(* process memory                                                      *)

(* VmHWM is the process's peak resident set since start (or since the
   last reset); it covers everything the OCaml heap statistics miss —
   the minor heaps of spawned domains, malloc'd bigarrays, the binary
   itself. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
          close_in ic;
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            (fun kb -> Some kb)
        end
        else scan ()
      | exception End_of_file ->
        close_in ic;
        None
    in
    scan ()
  with Sys_error _ | Scanf.Scan_failure _ | Failure _ -> None

(* Writing "5" to clear_refs resets VmHWM to the current RSS, so peaks
   can be attributed to one phase of a run.  Linux-only.  A write that
   succeeds is not enough to trust the next reading — the kernel may
   ignore it, and the watermark can only fall to whatever is still
   resident — so the result is whether VmHWM, re-read, actually dropped. *)
let reset_peak_rss () =
  let before = peak_rss_kb () in
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
    (try
       output_string oc "5\n";
       close_out oc
     with Sys_error _ -> close_out_noerr oc);
    match (before, peak_rss_kb ()) with
    | Some b, Some a -> a < b
    | _ -> false)

let mem_json () =
  let gc = Gc.quick_stat () in
  let rss =
    match peak_rss_kb () with Some kb -> [ ("peak_rss_kb", Json.Int kb) ] | None -> []
  in
  Json.Obj
    (rss
    @ [
        ("major_words", Json.Float gc.Gc.major_words);
        ("top_heap_words", Json.Int gc.Gc.top_heap_words);
        ("heap_words", Json.Int gc.Gc.heap_words);
        ("major_collections", Json.Int gc.Gc.major_collections);
        ("minor_collections", Json.Int gc.Gc.minor_collections);
      ])

(* ------------------------------------------------------------------ *)
(* exporters                                                           *)

let metrics_json () =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges ())) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (k, (n, total)) ->
               ( k,
                 Json.Obj
                   [ ("count", Json.Int n); ("total_us", Json.Float total) ] ))
             (span_totals ())) );
      ("mem", mem_json ());
    ]

let trace_json () =
  let event ev =
    Json.Obj
      [
        ("name", Json.String ev.name);
        ("cat", Json.String "dfr");
        ("ph", Json.String "X");
        ("ts", Json.Float ev.start_us);
        ("dur", Json.Float ev.dur_us);
        ("pid", Json.Int 0);
        ("tid", Json.Int ev.domain);
        ("args", Json.Obj [ ("depth", Json.Int ev.depth) ]);
      ]
  in
  let epoch_wall =
    match Atomic.get state with
    | None -> []
    | Some c ->
      (* lets trace consumers map the monotonic "ts" axis back onto
         calendar time: wall ≈ epoch_wall_us + ts *)
      [ ("epochWallUs", Json.Float c.epoch_wall_us) ]
  in
  Json.Obj
    ([
       ("traceEvents", Json.List (List.map event (events ())));
       ("displayTimeUnit", Json.String "ms");
     ]
    @ epoch_wall)

let write_trace file =
  let oc = open_out file in
  output_string oc (Json.to_string_pretty (trace_json ()));
  output_char oc '\n';
  close_out oc
