(* dfr_obs: span nesting, counter determinism across --domains, trace
   export validity, and the no-op guarantee of the disabled sink. *)

open Dfr_routing
open Dfr_core
module Obs = Dfr_obs.Obs
module Json = Dfr_util.Json

let check = Alcotest.check

(* force true concurrency: the pool otherwise clamps to the machine's
   core count and a 1-core CI box would run everything serially *)
let with_cap n f =
  Dfr_util.Domain_pool.set_cap (Some n);
  Fun.protect ~finally:(fun () -> Dfr_util.Domain_pool.set_cap None) f

let test_span_nesting () =
  Obs.enable ();
  let r =
    Obs.span "outer" (fun () ->
        Obs.span "inner" (fun () -> 7) + Obs.span "inner" (fun () -> 1))
  in
  check Alcotest.int "result passes through" 8 r;
  (try ignore (Obs.span "boom" (fun () -> failwith "x") : int)
   with Failure _ -> ());
  let totals = Obs.span_totals () in
  let count name =
    match List.assoc_opt name totals with
    | Some (n, _) -> n
    | None -> Alcotest.failf "span %S not recorded" name
  in
  check Alcotest.int "outer once" 1 (count "outer");
  check Alcotest.int "inner twice" 2 (count "inner");
  check Alcotest.int "recorded despite raise" 1 (count "boom");
  (* the trace carries the nesting depth per event *)
  let depth_of name =
    match Json.member "traceEvents" (Obs.trace_json ()) with
    | Some (Json.List evs) ->
      List.filter_map
        (fun e ->
          match (Json.member "name" e, Json.member "args" e) with
          | Some (Json.String n), Some args when n = name ->
            Option.bind (Json.member "depth" args) Json.to_int
          | _ -> None)
        evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  check Alcotest.(list int) "outer at depth 0" [ 0 ] (depth_of "outer");
  check Alcotest.(list int) "inner at depth 1" [ 1; 1 ] (depth_of "inner");
  Obs.disable ();
  check Alcotest.(list (pair string int)) "disabled sink reads empty" []
    (Obs.counters ())

(* counters must not depend on how many domains did the work; these
   fixtures exercise the checker shapes that reach the parallel paths
   deterministically (efa: wormhole, acyclic BWG; two-buffer: SAF with a
   full cycle scan; duato-incoherent: a wormhole cycle scan whose
   classification walks the move graphs).  [bwg.emissions], the BWG
   edge pass's emissions before de-duplication, must be among them: the
   pass is serial, but its groups are captured over the pool *)
let counters_for name domains =
  with_cap 4 @@ fun () ->
  let e =
    match Registry.find name with
    | Some e -> e
    | None -> Alcotest.failf "no registry entry %S" name
  in
  let net = Registry.network_for e None in
  Obs.enable ();
  ignore (Checker.check ~domains net e.Registry.algo : Checker.report);
  let cs = Obs.counters () in
  Obs.disable ();
  cs

let test_counters_deterministic () =
  List.iter
    (fun name ->
      let serial = counters_for name 1 in
      let parallel = counters_for name 4 in
      check
        Alcotest.(list (pair string int))
        (name ^ ": counters agree across domains")
        serial parallel;
      check Alcotest.bool (name ^ ": counters nonempty") true (serial <> []);
      check Alcotest.bool (name ^ ": bwg.emissions counted") true
        (Option.value (List.assoc_opt "bwg.emissions" serial) ~default:0 > 0))
    [ "efa"; "two-buffer"; "duato-incoherent" ]

(* same invariance for the parallel phase of the state-space build — the
   per-destination BFS, which also validates and builds the move graphs —
   without the checker around it *)
let space_counters domains =
  with_cap 4 @@ fun () ->
  let e = Option.get (Registry.find "efa") in
  let net = Registry.network_for e None in
  Obs.enable ();
  ignore (State_space.build ~domains net e.Registry.algo : State_space.t);
  let cs = Obs.counters () in
  Obs.disable ();
  cs

let test_space_counters_deterministic () =
  let serial = space_counters 1 in
  let parallel = space_counters 4 in
  check
    Alcotest.(list (pair string int))
    "space counters agree across domains" serial parallel;
  check Alcotest.bool "counters nonempty" true (serial <> [])

(* runtest's cwd is _build/default/test; a direct exec runs from the root *)
let plan_path name =
  let from_test = Filename.concat ".." ("examples/plans/" ^ name) in
  if Sys.file_exists from_test then from_test else "examples/plans/" ^ name

(* the scenario layer's probes on a sweep whose severed links strand
   packets: span names with their counts, and the counters *)
let scenario_probes domains =
  with_cap 4 @@ fun () ->
  let e = Option.get (Registry.find "dimension-order") in
  let topo = Result.get_ok (Dfr_topology.Topology.of_string "mesh:3x3") in
  let net = Registry.network_for e (Some topo) in
  let plan =
    Result.get_ok (Dfr_scenario.Fault.load_file (plan_path "mesh_link_cut.plan"))
  in
  Obs.enable ();
  (match
     Dfr_scenario.Scenario.campaign ~domains ~mode:`Sweep net e.Registry.algo plan
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("campaign: " ^ m));
  let spans = List.map (fun (name, (n, _)) -> (name, n)) (Obs.span_totals ()) in
  let cs = Obs.counters () in
  Obs.disable ();
  (spans, cs)

let test_scenario_spans () =
  let spans, serial = scenario_probes 1 in
  let _, parallel = scenario_probes 4 in
  let count name = Option.value (List.assoc_opt name spans) ~default:0 in
  check Alcotest.int "one campaign" 1 (count "scenario.campaign");
  check Alcotest.int "one step per fault" 3 (count "scenario.step");
  check Alcotest.bool "disconnections traced" true (count "scenario.disconnections" > 0);
  check
    Alcotest.(list (pair string int))
    "campaign counters agree across domains" serial parallel

let test_trace_exports_valid_json () =
  let e = Option.get (Registry.find "efa") in
  let net = Registry.network_for e None in
  Obs.enable ();
  ignore (Checker.check ~domains:2 net e.Registry.algo : Checker.report);
  let trace = Json.to_string_pretty (Obs.trace_json ()) in
  let metrics = Json.to_string (Obs.metrics_json ()) in
  Obs.disable ();
  (match Json.of_string metrics with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "metrics JSON unparseable: %s" err);
  match Json.of_string trace with
  | Error err -> Alcotest.failf "trace JSON unparseable: %s" err
  | Ok doc -> (
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | None | Some [] -> Alcotest.fail "empty or missing traceEvents"
    | Some evs ->
      List.iter
        (fun ev ->
          check Alcotest.(option string) "complete event" (Some "X")
            (Option.bind (Json.member "ph" ev) Json.to_str);
          List.iter
            (fun key ->
              if Json.member key ev = None then
                Alcotest.failf "trace event lacks %S" key)
            [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
        evs;
      (* the per-stage pipeline spans are always present, even for a
         Theorem 1 verdict where the later stages did no work *)
      let names =
        List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_str) evs
      in
      List.iter
        (fun stage ->
          if not (List.mem stage names) then
            Alcotest.failf "trace lacks stage span %S" stage)
        [
          "space.build"; "bwg.build"; "bwg.closure"; "bwg.bucket"; "checker.acyclic";
          "checker.knot"; "checker.cycle-scan"; "checker.classify";
        ])

(* An Incr verdict is Checker.decide's, so an update's trace carries
   the same stage skeleton a cold check's does, on both paths: a fast
   (Theorem 1) re-verdict runs the acyclicity stage and records the
   knot, cycle-scan and classify stages as zero-duration spans, and a
   replay (a knot) runs the first two and records the others. *)
let test_incr_stage_skeleton () =
  List.iter
    (fun (name, path, counter) ->
      let e = Option.get (Registry.find name) in
      let net = Registry.network_for e None in
      let session, _ = Incr.create net e.Registry.algo in
      Obs.enable ();
      let res = Incr.update session e.Registry.algo ~dirty:[] in
      let spans = Obs.span_totals () and counters = Obs.counters () in
      Obs.disable ();
      check Alcotest.bool (name ^ ": path") true (res.Incr.path = path);
      check Alcotest.(option int) (name ^ ": " ^ counter) (Some 1)
        (List.assoc_opt counter counters);
      List.iter
        (fun stage ->
          check Alcotest.(option int)
            (Printf.sprintf "%s: one %s span" name stage)
            (Some 1)
            (Option.map fst (List.assoc_opt stage spans)))
        [
          "incr.update";
          "checker.acyclic";
          "checker.knot";
          "checker.cycle-scan";
          "checker.classify";
        ])
    [ ("ecube", Incr.Fast, "incr.fast"); ("efa-relaxed", Incr.Replay, "incr.replay") ]

(* Every millisecond of a check in a stage: on the 6,336-buffer
   dragonfly the spans directly under checker.check (the state-space
   BFS, the BWG build and decide's stages) cover at least 95 % of it,
   the median of three in-process checks. *)
let test_check_covered_by_stages () =
  let e = Option.get (Registry.find "dragonfly-minimal") in
  let topo = Result.get_ok (Dfr_topology.Topology.of_string "dragonfly:8x4x33") in
  let net = Registry.network_for e (Some topo) in
  let coverage () =
    Obs.enable ();
    ignore (Checker.check net e.Registry.algo : Checker.report);
    let events = Option.bind (Json.member "traceEvents" (Obs.trace_json ())) Json.to_list in
    Obs.disable ();
    let spans =
      List.filter_map
        (fun ev ->
          match
            ( Json.member "name" ev,
              Json.member "ts" ev,
              Json.member "dur" ev,
              Option.bind (Json.member "args" ev) (Json.member "depth") )
          with
          | Some (Json.String n), Some (Json.Float ts), Some (Json.Float dur), Some (Json.Int d)
            ->
            Some (n, ts, dur, d)
          | _ -> None)
        (Option.value events ~default:[])
    in
    match List.filter (fun (n, _, _, _) -> n = "checker.check") spans with
    | [ (_, ts, dur, depth) ] ->
      let children =
        List.filter (fun (_, t, _, d) -> d = depth + 1 && t >= ts && t <= ts +. dur) spans
      in
      List.fold_left (fun acc (_, _, d, _) -> acc +. d) 0. children /. dur
    | _ -> Alcotest.fail "expected one checker.check span"
  in
  let runs = List.sort Float.compare (List.init 3 (fun _ -> coverage ())) in
  let median = List.nth runs 1 in
  check Alcotest.bool
    (Printf.sprintf "stages cover %.1f %% of checker.check (median of three)"
       (100. *. median))
    true (median >= 0.95)

(* An Incr edit's work is attributed inside its incr.update span: the
   slice swap under space.update, and every count move under bwg.patch.
   Each session read opens one patch span (and counts
   bwg.session.rederived once); a one-destination edit opens two more,
   the old emissions leaving and the new ones entering. *)
let test_incr_update_spans () =
  let e = Option.get (Registry.find "ecube") in
  let net = Registry.network_for e None in
  let session, _ = Incr.create net e.Registry.algo in
  Obs.enable ();
  ignore (Incr.update session e.Registry.algo ~dirty:[ 1 ] : Incr.result);
  let events = Option.bind (Json.member "traceEvents" (Obs.trace_json ())) Json.to_list in
  let reads = List.assoc_opt "bwg.session.rederived" (Obs.counter_calls ()) in
  Obs.disable ();
  let spans name =
    List.filter_map
      (fun ev ->
        match
          ( Json.member "name" ev,
            Json.member "ts" ev,
            Json.member "dur" ev,
            Option.bind (Json.member "args" ev) (Json.member "depth") )
        with
        | Some (Json.String n), Some (Json.Float ts), Some (Json.Float dur), Some (Json.Int d)
          when n = name ->
          Some (ts, dur, d)
        | _ -> None)
      (Option.value events ~default:[])
  in
  match spans "incr.update" with
  | [ (ts, dur, depth) ] ->
    let inside name =
      List.length
        (List.filter (fun (t, _, d) -> t >= ts && t <= ts +. dur && d > depth) (spans name))
    in
    check Alcotest.int "space.update under incr.update" 1 (inside "space.update");
    check Alcotest.(option int) "bwg.patch spans under incr.update: reads + 2"
      (Option.map (( + ) 2) reads)
      (Some (inside "bwg.patch"))
  | _ -> Alcotest.fail "expected one incr.update span"

(* A kept destination moves only the groups headed by a state whose
   waits changed, by the entries that changed (bwg.session.moves counts
   the moves): a rewrap that leaves the rule as it was moves nothing,
   and dropping one wait entry at one state moves one count per group
   that state heads.  The verdict is still the cold one. *)
let test_kept_dest_moves () =
  let e = Option.get (Registry.find "west-first") in
  let net = Registry.network_for e None in
  let algo = e.Registry.algo in
  let session, _ = Incr.create net algo in
  let moves f =
    Obs.enable ();
    let r = f () in
    let m = List.assoc_opt "bwg.session.moves" (Obs.counters ()) in
    Obs.disable ();
    (r, Option.value m ~default:0)
  in
  let space = Incr.space session in
  (* the first state with two waits or more *)
  let dest, buf =
    Option.get
      (List.find_map
         (fun dest ->
           let v = State_space.dest_view space ~dest in
           Option.map
             (fun i -> (dest, v.State_space.view_bufs.(i)))
             (List.find_opt
                (fun i ->
                  List.compare_length_with (State_space.row v.State_space.view_wts i) 2 >= 0)
                (List.init (Array.length v.State_space.view_bufs) Fun.id)))
         (List.init (State_space.num_nodes space) Fun.id))
  in
  let _, m = moves (fun () -> Incr.update session algo ~dirty:[ dest ]) in
  check Alcotest.int "a rewrap of the same rule moves nothing" 0 m;
  let headed = ref [] in
  Bwg.dest_edges space ~dest ~emit:(fun q1 _ w ->
      if w.Bwg.head = buf then headed := q1 :: !headed);
  let groups = List.length (List.sort_uniq compare !headed) in
  let dropped =
    Algo.with_waits algo (fun net b ~dest:d ->
        let ws = algo.Algo.waits net b ~dest:d in
        if Dfr_network.Buf.id b = buf && d = dest then List.tl ws else ws)
  in
  let res, m = moves (fun () -> Incr.update session dropped ~dirty:[ dest ]) in
  check Alcotest.bool "the state heads groups" true (groups > 0);
  check Alcotest.int "one move per group the state heads" groups m;
  check Alcotest.int "both edits kept the groups" 2
    (Incr.counters session).Incr.patched_dests;
  check Alcotest.string "verdict as cold"
    (Json.to_string
       (Report_json.of_outcome net dropped (Checker.check net dropped)))
    (Json.to_string res.Incr.report)

(* with the collector disabled the probes must be pure pass-throughs:
   same verdict, byte-identical JSON report *)
let report_bytes ~instrumented =
  if instrumented then Obs.enable () else Obs.disable ();
  let e = Option.get (Registry.find "efa") in
  let net = Registry.network_for e None in
  let report = Checker.check net e.Registry.algo in
  let s = Report_json.to_string net e.Registry.algo report in
  Obs.disable ();
  s

let test_disabled_sink_is_noop () =
  check Alcotest.string "report bytes identical"
    (report_bytes ~instrumented:false)
    (report_bytes ~instrumented:true)

(* Timestamps are monotonic-clock readings: every exported ts must be
   nonnegative (nothing before the collector's epoch) and the sorted
   export must be nondecreasing.  Under gettimeofday an NTP step could
   violate both; this pins the Monotime re-base.  The wall-clock anchor
   is exported separately as epochWallUs. *)
let test_timestamps_monotonic () =
  Obs.enable ();
  for _ = 1 to 100 do
    Obs.span "tick" (fun () -> Obs.span "tock" (fun () -> ()))
  done;
  let doc = Obs.trace_json () in
  let wall =
    match Json.member "epochWallUs" doc with
    | Some (Json.Float w) -> w
    | _ -> Alcotest.fail "trace lacks epochWallUs"
  in
  check Alcotest.bool "wall epoch is a plausible gettimeofday" true
    (wall > 1e15 (* ~2001 in µs; catches a zero or a ns/ms mixup *));
  (match Option.bind (Json.member "traceEvents" doc) Json.to_list with
  | None | Some [] -> Alcotest.fail "no trace events"
  | Some evs ->
    let ts =
      List.filter_map
        (fun e ->
          match Json.member "ts" e with Some (Json.Float t) -> Some t | _ -> None)
        evs
    in
    check Alcotest.int "every event has ts" (List.length evs) (List.length ts);
    List.iter
      (fun t ->
        if t < 0.0 then Alcotest.failf "event before the epoch: ts=%f" t)
      ts;
    if List.sort compare ts <> ts then
      Alcotest.fail "exported events are not in nondecreasing ts order");
  Obs.disable ();
  check Alcotest.bool "epochWallUs absent when disabled" true
    (Json.member "epochWallUs" (Obs.trace_json ()) = None)

(* touch [mb] MB and drop it again; a separate function so nothing on the
   caller's stack keeps the block alive *)
let[@inline never] raise_watermark mb =
  Bytes.length (Sys.opaque_identity (Bytes.make (mb * 1024 * 1024) 'x'))

(* The reset must report what the next reading will show: raise the
   watermark with a large block, release it, reset, and the result is
   whether VmHWM fell.  Where /proc/self/clear_refs is writable the block
   was given back to the OS, so the watermark must have fallen. *)
let test_reset_peak_rss_honest () =
  match Obs.peak_rss_kb () with
  | None -> check Alcotest.bool "no VmHWM, no reset" false (Obs.reset_peak_rss ())
  | Some _ ->
    let mb = 64 in
    ignore (raise_watermark mb : int);
    let peak = Option.get (Obs.peak_rss_kb ()) in
    Gc.full_major ();
    let dropped = Obs.reset_peak_rss () in
    let after = Option.get (Obs.peak_rss_kb ()) in
    check Alcotest.bool "result = whether the watermark fell" (after < peak) dropped;
    let writable =
      try
        close_out (open_out "/proc/self/clear_refs");
        true
      with Sys_error _ -> false
    in
    if writable then begin
      check Alcotest.bool "released block lowers the watermark" true dropped;
      check Alcotest.bool "by most of the block" true (peak - after > mb * 1024 / 2)
    end

(* The bwg.edges / bwg.vertices gauges describe the full BWG the report
   counts, though a BWG' is derived after it: on the search path (the
   hintless two-buffer reprint) and on the hint path (the catalogue
   entry). *)
let test_gauges_full_bwg () =
  let e = Option.get (Registry.find "two-buffer") in
  let net = Registry.network_for e None in
  let reprint =
    let text = Result.get_ok (Dfr_spec.Printer.to_string net e.Registry.algo) in
    (Result.get_ok (Dfr_spec.Spec.compile_string text)).Dfr_spec.Spec.algo
  in
  List.iter
    (fun (label, algo, via_hint) ->
      Obs.enable ();
      let report = Checker.check net algo in
      let gauge name = List.assoc_opt name (Obs.gauges ()) in
      let edges = gauge "bwg.edges" and vertices = gauge "bwg.vertices" in
      Obs.disable ();
      (match report.Checker.verdict with
      | Checker.Deadlock_free (Checker.Reduced_bwg r) ->
        check Alcotest.bool (label ^ ": path") via_hint r.via_hint
      | _ -> Alcotest.failf "%s: expected a Theorem-3 verdict" label);
      let bwg = Option.get (Json.member "bwg" (Report_json.of_outcome net algo report)) in
      let field name = float_of_int (Option.get (Option.bind (Json.member name bwg) Json.to_int)) in
      check Alcotest.(option (float 0.)) (label ^ ": bwg.edges gauge") (Some (field "edges")) edges;
      check Alcotest.(option (float 0.))
        (label ^ ": bwg.vertices gauge")
        (Some (field "vertices"))
        vertices)
    [ ("hint", e.Registry.algo, true); ("search", reprint, false) ]

(* how many [name] spans [f] records *)
let spans_of name f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      f ();
      match List.assoc_opt name (Obs.span_totals ()) with Some (n, _) -> n | None -> 0)

(* A cold Theorem-3 check probes the session its build opened, so it
   captures each destination once: the hint check of two-buffer on its
   default mesh:4x4, and the search on the hintless reprint. *)
let test_theorem3_captures_once () =
  let e = Option.get (Registry.find "two-buffer") in
  let net = Registry.network_for e None in
  let reprint =
    let text = Result.get_ok (Dfr_spec.Printer.to_string net e.Registry.algo) in
    (Result.get_ok (Dfr_spec.Spec.compile_string text)).Dfr_spec.Spec.algo
  in
  List.iter
    (fun (label, algo, via_hint) ->
      let closures =
        spans_of "bwg.closure" (fun () ->
            match (Checker.check net algo).Checker.verdict with
            | Checker.Deadlock_free (Checker.Reduced_bwg r) ->
              check Alcotest.bool (label ^ ": path") via_hint r.via_hint
            | _ -> Alcotest.failf "%s: expected a Theorem-3 verdict" label)
      in
      check Alcotest.int
        (label ^ ": one capture per destination")
        (Dfr_network.Net.num_nodes net) closures)
    [ ("hint", e.Registry.algo, true); ("search", reprint, false) ]

(* A hintless Theorem-3 check streams the full BWG's cycles to the first
   True Cycle and searches, and its trace still carries the cycle-scan and
   classify stages.  On the two-buffer mesh:4x4 reprint the stream meets
   one cycle, where the eager scan it replaced stored 98; the build's
   counters count the one build, as they did then (E30): 660 emissions,
   no capped witness list, one bucket pass. *)
let test_theorem3_stream_skeleton () =
  let e = Option.get (Registry.find "two-buffer") in
  let net = Registry.network_for e None in
  let reprint =
    let text = Result.get_ok (Dfr_spec.Printer.to_string net e.Registry.algo) in
    (Result.get_ok (Dfr_spec.Spec.compile_string text)).Dfr_spec.Spec.algo
  in
  Obs.enable ();
  let verdict = (Checker.check net reprint).Checker.verdict in
  let spans = Obs.span_totals () and counters = Obs.counters () in
  Obs.disable ();
  (match verdict with
  | Checker.Deadlock_free (Checker.Reduced_bwg { via_hint = false; _ }) -> ()
  | v -> Alcotest.failf "expected a searched BWG', got %a" (Checker.pp_verdict net) v);
  let counter name = Option.value (List.assoc_opt name counters) ~default:0 in
  let spans_named name = Option.fold ~none:0 ~some:fst (List.assoc_opt name spans) in
  List.iter
    (fun stage ->
      check Alcotest.bool (stage ^ " in the trace") true (spans_named stage > 0))
    [ "checker.cycle-scan"; "checker.classify" ];
  check Alcotest.int "checker.cycles.enumerated" 1 (counter "checker.cycles.enumerated");
  check Alcotest.int "bwg.emissions" 660 (counter "bwg.emissions");
  check Alcotest.int "bwg.witnesses.capped" 0 (counter "bwg.witnesses.capped");
  check Alcotest.int "bwg.bucket spans" 1 (spans_named "bwg.bucket")

(* No read makes a session's count table: a Theorem-1 check, a knot
   check and an Incr session's first verdict change no wait entry, so
   they record no bwg.patch span. *)
let test_no_count_table_unchanged () =
  let entry name =
    let e = Option.get (Registry.find name) in
    (Registry.network_for e None, e.Registry.algo)
  in
  List.iter
    (fun (name, proof) ->
      let net, algo = entry name in
      let patches =
        spans_of "bwg.patch" (fun () ->
            let verdict = (Checker.check net algo).Checker.verdict in
            check Alcotest.bool (name ^ ": verdict") true (proof verdict))
      in
      check Alcotest.int (name ^ ": no bwg.patch span") 0 patches)
    [
      ("dragonfly-minimal", ( = ) (Checker.Deadlock_free Checker.Acyclic_bwg));
      ( "single-buffer",
        function Checker.Deadlock_possible (Checker.Knot _) -> true | _ -> false );
    ];
  let net, algo = entry "ecube" in
  check Alcotest.int "ecube Incr.create: no bwg.patch span" 0
    (spans_of "bwg.patch" (fun () -> ignore (Incr.create net algo : Incr.t * Incr.result)))

let suite =
  [
    Alcotest.test_case "span nesting and depth" `Quick test_span_nesting;
    Alcotest.test_case "reset_peak_rss reports a real drop" `Quick
      test_reset_peak_rss_honest;
    Alcotest.test_case "counters deterministic across domains" `Quick
      test_counters_deterministic;
    Alcotest.test_case "space counters deterministic across domains" `Quick
      test_space_counters_deterministic;
    Alcotest.test_case "scenario spans, counters deterministic across domains"
      `Quick test_scenario_spans;
    Alcotest.test_case "trace and metrics export valid JSON" `Quick
      test_trace_exports_valid_json;
    Alcotest.test_case "disabled sink changes nothing" `Quick
      test_disabled_sink_is_noop;
    Alcotest.test_case "timestamps are monotonic" `Quick
      test_timestamps_monotonic;
    Alcotest.test_case "bwg gauges describe the full BWG" `Quick
      test_gauges_full_bwg;
    Alcotest.test_case "an Incr update carries decide's stage skeleton" `Quick
      test_incr_stage_skeleton;
    Alcotest.test_case "an Incr edit's count moves run under bwg.patch" `Quick
      test_incr_update_spans;
    Alcotest.test_case "a kept destination moves only its changed heads" `Quick
      test_kept_dest_moves;
    Alcotest.test_case "checker.check's stages cover 95 % of it" `Quick
      test_check_covered_by_stages;
    Alcotest.test_case "a cold Theorem-3 check captures each destination once"
      `Quick test_theorem3_captures_once;
    Alcotest.test_case "no count table without a wait-entry change" `Quick
      test_no_count_table_unchanged;
    Alcotest.test_case "a hintless Theorem-3 trace streams to its first True Cycle"
      `Quick test_theorem3_stream_skeleton;
  ]
