(* The cold checking pipeline, one public call per layer: exactly the
   calls Checker.check makes, spelled out so each layer can be timed and
   its allocation counted on its own.  Used for the per-layer numbers of
   every workload and for the in-process references outputs are checked
   against. *)

open Dfr_routing
open Dfr_core
module Json = Dfr_util.Json
module Obs = Dfr_obs.Obs

type source =
  | Named of string * string option  (** catalogue algorithm, topology *)
  | Spec of string  (** .dfr text *)

let source_to_json = function
  | Named (a, t) ->
    Json.Obj
      [
        ("algo", Json.String a);
        ("topology", match t with Some t -> Json.String t | None -> Json.Null);
      ]
  | Spec text -> Json.Obj [ ("spec", Json.String text) ]

let source_of_json j =
  match Table.str_opt "spec" j with
  | Some text -> Spec text
  | None -> Named (Table.str "algo" j, Table.str_opt "topology" j)

let topology s =
  match Dfr_topology.Topology.of_string s with
  | Ok t -> t
  | Error msg -> Table.fail "%s" msg

let resolve = function
  | Named (algo, topo) -> (
    match Registry.find algo with
    | None -> Table.fail "unknown algorithm %S" algo
    | Some e -> (Registry.network_for e (Option.map topology topo), e.Registry.algo))
  | Spec text -> (
    match Dfr_spec.Spec.compile_string text with
    | Ok s -> (s.Dfr_spec.Spec.net, s.Dfr_spec.Spec.algo)
    | Error e -> Table.fail "spec: %s" (Dfr_spec.Spec.error_to_string e))

(* A catalogue instance reprinted as a .dfr spec.  The printer drops the
   BWG' hint, so a Theorem-3 instance must find its BWG' by search. *)
let spec_text algo topo =
  let net, algo = resolve (Named (algo, topo)) in
  match Dfr_spec.Printer.to_string net algo with
  | Ok s -> s
  | Error msg -> Table.fail "printer: %s" msg

type checked = { report : Json.t; exit_code : int }

(* Per-layer accumulation: wall seconds and allocated megawords. *)
type acc = {
  time : (string, float) Hashtbl.t;
  alloc : (string, float) Hashtbl.t;
  mutable edges : int;
  mutable rss_kb : int;
}

let acc () = { time = Hashtbl.create 8; alloc = Hashtbl.create 8; edges = 0; rss_kb = 0 }
let get h k = Option.value ~default:0. (Hashtbl.find_opt h k)
let bump h k v = Hashtbl.replace h k (get h k +. v)

let check ?spans ?acc source =
  let layer name f =
    let f = match spans with Some s -> fun () -> Spans.span s name f | None -> f in
    match acc with
    | None -> f ()
    | Some a ->
      let a0 = Gc.allocated_bytes () and t0 = Proc.now () in
      let r = f () in
      bump a.time name (Proc.now () -. t0);
      bump a.alloc name ((Gc.allocated_bytes () -. a0) /. 8e6);
      r
  in
  let net, algo = layer "instance" (fun () -> resolve source) in
  let space = layer "space" (fun () -> State_space.build net algo) in
  let bwg = layer "bwg" (fun () -> Bwg.build space) in
  Option.iter
    (fun a ->
      a.edges <- a.edges + Dfr_graph.Digraph.num_edges (Bwg.graph bwg);
      a.rss_kb <- max a.rss_kb (Option.value ~default:0 (Obs.peak_rss_kb ())))
    acc;
  let stuck, unconnected =
    layer "scan" (fun () ->
        let stuck = State_space.stuck_states space in
        (stuck, if stuck = [] then Bwg.unconnected_states bwg else []))
  in
  let report = layer "decide" (fun () -> Checker.decide ~stuck ~unconnected space bwg) in
  layer "render" (fun () ->
      let j = Report_json.of_outcome net algo report in
      ignore (Json.to_string_pretty j);
      { report = j; exit_code = Report_json.exit_code report.Checker.verdict })

(* What `dfcheck check --json` / `spec check --json` print for a report,
   and the digest every report comparison goes through. *)
let cli_bytes j = Json.to_string_pretty j ^ "\n"
let digest j = Digest.to_hex (Digest.string (cli_bytes j))

(* ---- the pipeline child: dfbench child pipeline ---- *)

let layers = [ "instance"; "space"; "bwg"; "scan"; "decide"; "render" ]

(* The library's own spans inside decide and the lower layers. *)
let inner =
  [
    "space.validate";
    "bwg.closure";
    "checker.knot";
    "checker.cycle-scan";
    "checker.classify";
    "reduction.search";
  ]

(* Runs every source once.  Untraced, it only times the pass; traced, it
   also records a span per layer, enables Dfr_obs so the library's own
   inner spans and counters nest under them, and writes the combined
   Chrome trace. *)
let child ~sources ~trace ~trace_file =
  let spans = Spans.create ~enabled:trace in
  let a = acc () in
  if trace then Obs.enable ();
  let t0 = Proc.now () in
  let acc = if trace then Some a else None in
  let digests = List.map (fun src -> digest (check ~spans ?acc src).report) sources in
  let total = Proc.now () -. t0 in
  let floats names f = Json.Obj (List.map (fun n -> (n, Json.Float (f n))) names) in
  let obs_span n =
    match List.assoc_opt n (Obs.span_totals ()) with Some (_, us) -> us /. 1e6 | None -> 0.
  in
  let traced =
    [
      ("layer_s", floats layers (get a.time));
      ("alloc_mw", floats layers (get a.alloc));
      ("inner_s", floats inner obs_span);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.counters ())));
      ("bwg_edges", Json.Int a.edges);
      ("bwg_rss_mb", Json.Float (float_of_int a.rss_kb /. 1024.));
    ]
  in
  if trace then Spans.write ~extra:(Spans.obs_events ()) spans trace_file;
  Json.Obj
    ([
       ("total_s", Json.Float total);
       ("digests", Json.List (List.map (fun d -> Json.String d) digests));
     ]
    @ if trace then traced else [])

(* ---- parent side ---- *)

let last_line out =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

(* Run a harness child ([dfbench child KIND ARGS]) to completion and parse
   the JSON document it prints last. *)
let run_child (ctx : Table.ctx) ~label ~trace_file kind args =
  if Sys.file_exists trace_file then Sys.remove trace_file;
  let start_us = Spans.now_us ctx.spans in
  Spans.span ctx.spans label (fun () ->
      let out, ex = Proc.run ~log:(Table.log ctx) ctx.self ("child" :: kind :: args) in
      match Json.of_string (last_line out) with
      | Ok doc when ex.Proc.code = 0 ->
        (* a child that traces only part of its life says when it began *)
        let origin =
          match Json.member "trace_origin_s" doc with Some v -> Table.num v | None -> 0.
        in
        Spans.adopt ctx.spans ~start_us:(start_us +. (origin *. 1e6)) ~label trace_file;
        (doc, ex)
      | _ ->
        Table.fail "dfbench child %s exited %d (see %s)" kind ex.Proc.code (Table.log ctx))

(* The per-layer metrics every workload reports: the pipeline child runs
   the workload's instances untraced, then traced.  Returns the report
   digests (of the CLI's --json bytes) for the caller to compare with
   what the user surface printed. *)
let per_layer (ctx : Table.ctx) (o : Table.outcome) sources =
  let file suffix = Table.work_file ctx (ctx.wl.Table.wname ^ suffix) in
  let src_file = file ".sources.json" and trace_file = file ".pipeline-trace.json" in
  Out_channel.with_open_bin src_file (fun oc ->
      output_string oc (Json.to_string (Json.List (List.map source_to_json sources))));
  let run trace =
    let label = if trace then "pipeline.traced" else "pipeline.plain" in
    let flag = if trace then "1" else "0" in
    fst
      (run_child ctx ~label ~trace_file "pipeline"
         [ "--sources"; src_file; "--trace"; flag; "--trace-file"; trace_file ])
  in
  let plain = run false in
  let traced = run true in
  let num k j = Table.num (Table.field k j) in
  let layer k = num k (Table.field "layer_s" traced) in
  let alloc k = num k (Table.field "alloc_mw" traced) in
  let counter k =
    match Json.member k (Table.field "counters" traced) with Some v -> Table.num v | None -> 0.
  in
  let m = Table.metric o in
  m "instance_s" "s" (layer "instance");
  m "space.build_s" "s" (layer "space");
  m "space.validate_s" "s" (num "space.validate" (Table.field "inner_s" traced));
  m "bwg.build_s" "s" (layer "bwg");
  m "scan_s" "s" (layer "scan");
  m "decide_s" "s" (layer "decide");
  m "report.render_s" "s" (layer "render");
  m "instance.alloc_mw" "Mw" (alloc "instance");
  m "space.alloc_mw" "Mw" (alloc "space");
  m "bwg.alloc_mw" "Mw" (alloc "bwg");
  m "decide.alloc_mw" "Mw" (alloc "decide");
  m "space.states" "count" (counter "space.states");
  m "bwg.edges" "count" (num "bwg_edges" traced);
  m "bwg.closure_words" "count" (counter "bwg.closure.words");
  m "checker.cycles_enumerated" "count" (counter "checker.cycles.enumerated");
  m "reduction.attempts" "count" (counter "reduction.attempts");
  m "bwg.rss_mb" "MB" (num "bwg_rss_mb" traced);
  m "trace_overhead_frac" "fraction" ((num "total_s" traced /. num "total_s" plain) -. 1.);
  Table.detail o "pipeline_inner_s" (Table.field "inner_s" traced);
  Table.detail o "pipeline_plain_s" (Table.field "total_s" plain);
  Table.detail o "pipeline_traced_s" (Table.field "total_s" traced);
  let digests j = List.filter_map Json.to_str (Table.list "digests" j) in
  if digests plain <> digests traced then
    Table.failure o "pipeline reports differ traced vs untraced";
  digests traced
