(* Edit streams through one incremental session, in a harness child (no
   CLI surface streams edits): single-destination edits — route widen and
   restore pairs, wait rewraps that ride the patch path — beside fault
   kills that dirty a large destination frontier.  The fault outcomes are
   then checked byte for byte against `dfcheck scenario sweep` on the same
   storm plan. *)

open Dfr_network
open Dfr_routing
open Dfr_core
module Json = Dfr_util.Json
module Prng = Dfr_util.Prng
module Fault = Dfr_scenario.Fault
module Degrade = Dfr_scenario.Degrade

let plan_text ~seed ~storm =
  Printf.sprintf "plan \"dfbench-storm\"\nseed %d\nstorm links %d\n" seed storm

(* The classification Scenario.campaign gives a degraded verdict. *)
let classify space ~killed ~dirty ~exit_code report =
  if exit_code = 0 then "free"
  else if exit_code <> 1 then "unknown"
  else
    match Report_json.of_string (Json.to_string report) with
    | Ok { Report_json.failure_kind = Some "stuck-states"; _ } ->
      let sources = List.init (State_space.num_nodes space) Fun.id in
      if Degrade.disconnections space ~killed ~dests:dirty ~sources = [] then "deadlock"
      else "disconnected"
    | _ -> "deadlock"

(* ---- the child: dfbench child incr ---- *)

let child ~params ~setups ~seed ~seconds ~trace ~plan_file ~trace_file ~log =
  let started = Proc.now () in
  let speed = Speed.create ~enabled:(not trace) ~log ~self:Sys.executable_name in
  let inst = Table.field "instance" params in
  let entry =
    match Registry.find (Table.str "algo" inst) with
    | Some e -> e
    | None -> Table.fail "unknown algorithm"
  in
  let topo = Pipeline.topology (Table.str "topology" inst) in
  let a =
    match Dfr_topology.Topology.dragonfly_params topo with
    | Some (a, _, _) -> a
    | None -> Table.fail "incr: a dragonfly topology is expected"
  in
  let o = Table.outcome () in
  let verify ok what = Table.attempt o (if ok then None else Some what) in
  (* set-up: network + cold session, [setups] times; the last is used *)
  let setup () =
    let net = Registry.network_for entry (Some topo) in
    let algo = { entry.Registry.algo with Algo.reduced_waits = None } in
    let session, r0 = Incr.create net algo in
    (net, algo, session, r0)
  in
  let setup_times = ref [] and last = ref None in
  for _ = 1 to setups do
    last := None;
    Gc.full_major ();
    let t0 = Proc.now () in
    let s = setup () in
    let t1 = Proc.now () in
    setup_times := (t1, t1 -. t0) :: !setup_times;
    last := Some s;
    Speed.tick speed
  done;
  let net, algo, session, r0 = Option.get !last in
  (* the harness spans and the library's share one time origin *)
  let spans = Spans.create ~enabled:trace in
  if trace then Dfr_obs.Obs.enable ();
  let base = Json.to_string r0.Incr.report in
  let expect = Table.field "expect" params in
  Table.attempt o
    (Table.check_report ~expect ~exit_code:r0.Incr.exit_code (Pipeline.cli_bytes r0.Incr.report));
  let space = Incr.space session in
  let nn = State_space.num_nodes space in
  (* widen destination [d]'s final local hop to both vcs: a real
     single-destination route edit that keeps the BWG acyclic *)
  let widen d =
    Algo.with_relation algo ~name:algo.Algo.name (fun net b ~dest ->
        let route = algo.Algo.route net b ~dest in
        let head = Buf.head_node b in
        if dest = d && head / a = d / a && head <> d then
          let port = ((d mod a) - (head mod a) - 1 + a) mod a in
          let vc1 =
            Buf.id (Net.channel net ~src:head ~dim:port ~dir:Dfr_topology.Topology.Plus ~vc:1)
          in
          if List.mem vc1 route then route else route @ [ vc1 ]
        else route)
  in
  let rewrap =
    Algo.with_waits algo ~name:algo.Algo.name (fun net b ~dest -> algo.Algo.waits net b ~dest)
  in
  let expand_t0 = Proc.now () in
  let steps =
    match Result.bind (Fault.load_file plan_file) (fun plan -> Fault.expand plan net) with
    | Ok s -> Array.of_list s
    | Error msg -> Table.fail "plan: %s" msg
  in
  let expand_ms = (Proc.now () -. expand_t0) *. 1000. in
  let rng = Prng.create seed in
  (* the storm is fixed, so every run pays for the same faults; the seed
     picks their order *)
  let order = Array.init (Array.length steps) Fun.id in
  Prng.shuffle rng order;
  let dest = ref 0 in
  let samples = ref [] and kinds = Buffer.create 1024 and faults = ref [] in
  let update algo' dirty = Incr.update session algo' ~dirty in
  let same_as_base (r : Incr.result) = Json.to_string r.Incr.report = base in
  let fault_op k =
    let j = order.(k mod Array.length steps) in
    let fault = steps.(j).Fault.fault in
    match Spans.span spans "degrade.apply" (fun () -> Degrade.apply space [ fault ]) with
    | Ok (Degrade.Filtered { algo = algo'; killed; dirty }) ->
      let r = Spans.span spans "incr.update_fault" (fun () -> update algo' dirty) in
      let cls =
        Spans.span spans "degrade.classify" (fun () ->
            classify space ~killed ~dirty ~exit_code:r.Incr.exit_code r.Incr.report)
      in
      let back = Spans.span spans "incr.restore" (fun () -> update algo dirty) in
      fun () ->
        faults := (j, r.Incr.exit_code, Pipeline.digest r.Incr.report, cls) :: !faults;
        verify (same_as_base back) "restoring a fault did not give back the baseline bytes"
    | Ok (Degrade.Rebuilt _) -> fun () -> verify false "a storm kill rebuilt the network"
    | Error msg -> fun () -> verify false ("fault: " ^ msg)
  in
  (* One operation, as the section's "pattern" spells the stream: w widens
     a destination's route, r restores it, x rewraps a waiting rule, f
     kills the storm's next fault and restores it.  The returned thunk
     verifies the operation, outside the timing. *)
  let pattern = Table.str "pattern" params in
  let n = String.length pattern in
  String.iteri
    (fun i c ->
      if (c = 'w') <> (pattern.[(i + 1) mod n] = 'r') then
        Table.fail "pattern %S: every w must be followed by an r, and only a w by it" pattern)
    pattern;
  let faults_run = ref 0 in
  let op = function
    | 'f' ->
      fun () ->
        incr faults_run;
        fault_op (!faults_run - 1)
    | 'x' ->
      fun () ->
        let r = update rewrap [ Prng.int rng nn ] in
        fun () ->
          verify (r.Incr.path = Incr.Fast && same_as_base r) "wait rewrap changed the report"
    | 'w' ->
      fun () ->
        dest := Prng.int rng nn;
        let r = update (widen !dest) [ !dest ] in
        fun () ->
          verify (r.Incr.path = Incr.Fast && r.Incr.exit_code = 0) "route widen left the fast path"
    | 'r' ->
      fun () ->
        let r = update algo [ !dest ] in
        fun () -> verify (same_as_base r) "route restore did not give back the baseline bytes"
    | c -> Table.fail "pattern %S: unknown operation %C" pattern c
  in
  let loop_from, loop_until =
    Table.measure ~speed ~seconds params (fun i ->
        let kind = pattern.[i mod n] in
        let run = op kind in
        let t0 = Proc.now () in
        let check = Spans.span spans ~req:i (Printf.sprintf "op.%c" kind) run in
        let t1 = Proc.now () in
        samples := (t1, (t1 -. t0) *. 1000.) :: !samples;
        Buffer.add_char kinds kind;
        check ())
  in
  if trace then Spans.write ~extra:(Spans.obs_events ()) spans trace_file;
  let c = Incr.counters session in
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  let timed l =
    Json.List (List.map (fun (at, v) -> Json.List [ Speed.time_to_json at; Json.Float v ]) l)
  in
  let step_p50 name = (name, Json.Float (Stats.median (Spans.durations_ms spans name))) in
  Json.Obj
    [
      ("setups", timed (List.rev !setup_times));
      ("samples", timed (List.rev !samples));
      ("kinds", Json.String (Buffer.contents kinds));
      ("loop", Json.List [ Speed.time_to_json loop_from; Speed.time_to_json loop_until ]);
      ("probes", Json.List (List.map Speed.probe_to_json speed.Speed.probes));
      ("trace_origin_s", Json.Float (spans.Spans.origin -. started));
      ("attempted", Json.Int o.Table.attempted);
      ("failed", Json.Int o.Table.failed);
      ("errors", Json.List (List.map (fun e -> Json.String e) o.Table.errors));
      ("baseline", Json.String (Pipeline.digest r0.Incr.report));
      ( "fault_steps_p50_ms",
        Json.Obj
          (("fault.expand", Json.Float expand_ms)
          :: List.map step_p50
               [ "degrade.apply"; "incr.update_fault"; "degrade.classify"; "incr.restore" ]) );
      ( "faults",
        Json.List
          (List.rev_map
             (fun (j, exit_code, d, cls) ->
               Json.Obj
                 [
                   ("index", Json.Int j);
                   ("exit", Json.Int exit_code);
                   ("digest", Json.String d);
                   ("class", Json.String cls);
                 ])
             !faults) );
      ( "counters",
        ints
          [
            ("fast_verdicts", c.Incr.fast_verdicts);
            ("replays", c.Incr.replays);
            ("patched_dests", c.Incr.patched_dests);
            ("reemitted_dests", c.Incr.reemitted_dests);
          ] );
    ]

(* ---- the parent side ---- *)

(* Every fault outcome the session produced must equal the CLI campaign's
   outcome for the same fault: report bytes, exit code, classification. *)
let compare_campaign doc out code =
  match Json.of_string out with
  | Error msg -> Some ("scenario sweep printed no campaign: " ^ msg)
  | Ok c ->
    let cli = Array.of_list (Table.list "faults" c) in
    let baseline = Table.field "report" (Table.field "baseline" c) in
    if code <> Table.int "exit" c then Some "scenario sweep exit code differs from its campaign's"
    else if Pipeline.digest baseline <> Table.str "baseline" doc then
      Some "session baseline differs from the CLI campaign's"
    else
      List.find_map
        (fun f ->
          let j = Table.int "index" f in
          let cf = cli.(j) in
          if
            Pipeline.digest (Table.field "report" cf) <> Table.str "digest" f
            || Table.int "exit" cf <> Table.int "exit" f
            || Table.str "class" cf <> Table.str "class" f
          then Some (Printf.sprintf "fault %d: session outcome differs from the CLI campaign's" j)
          else None)
        (Table.list "faults" doc)

let run (ctx : Table.ctx) (o : Table.outcome) =
  let p = ctx.params in
  let inst = Table.field "instance" p in
  let algo = Table.str "algo" inst and topo = Table.str "topology" inst in
  let file suffix = Table.work_file ctx (ctx.wl.Table.wname ^ suffix) in
  let plan_file = file ".plan" and params_file = file ".params.json" in
  let trace_file = file ".child-trace.json" in
  let write f s = Out_channel.with_open_bin f (fun oc -> output_string oc s) in
  write plan_file (plan_text ~seed:(Table.int "storm_seed" p) ~storm:(Table.int "storm" p));
  write params_file (Json.to_string p);
  let doc, child =
    Pipeline.run_child ctx ~label:"incr child" ~trace_file "incr"
      [
        "--params"; params_file;
        "--setups"; string_of_int (Table.setups ctx);
        "--seed"; string_of_int ctx.seed;
        "--seconds"; Printf.sprintf "%g" ctx.seconds;
        "--trace"; (if ctx.trace then "1" else "0");
        "--plan"; plan_file;
        "--trace-file"; trace_file;
        "--log"; Table.log ctx;
      ]
  in
  o.attempted <- o.attempted + Table.int "attempted" doc;
  o.failed <- o.failed + Table.int "failed" doc;
  o.errors <- o.errors @ List.filter_map Json.to_str (Table.list "errors" doc);
  let out, sweep =
    Spans.span ctx.spans "cli.scenario_sweep" (fun () ->
        Proc.run ~log:(Table.log ctx) ctx.dfcheck
          [ "scenario"; "sweep"; "-a"; algo; "-t"; topo; "--plan"; plan_file; "--json" ])
  in
  Table.attempt o (compare_campaign doc out sweep.Proc.code);
  Table.detail o "sweep_s" (Json.Float sweep.Proc.wall_s);
  if ctx.trace then Table.detail o "fault_steps_p50_ms" (Table.field "fault_steps_p50_ms" doc);
  let timed k =
    List.map
      (function
        | Json.List [ at; v ] -> (Speed.time_of_json at, Table.num v)
        | _ -> Table.fail "incr child: [time, value] expected in %s" k)
      (Table.list k doc)
  in
  let samples = timed "samples" in
  Speed.add ctx.speed (List.map Speed.probe_of_json (Table.list "probes" doc));
  let loop =
    match Table.list "loop" doc with
    | [ a; b ] -> (Speed.time_of_json a, Speed.time_of_json b)
    | _ -> Table.fail "incr child: loop [start, end] expected"
  in
  Table.e2e o ~setups:(timed "setups") ~samples ~loop
    ~rss_mb:(Float.max child.Proc.rss_mb sweep.Proc.rss_mb);
  let kinds = Table.str "kinds" doc in
  List.iter
    (fun (label, cs) ->
      let s = List.filteri (fun i _ -> String.contains cs kinds.[i]) (List.map snd samples) in
      Table.detail o (label ^ "_ms")
        (Json.Obj
           [
             ("n", Json.Int (List.length s));
             ("p50", Json.Float (Stats.percentile s 0.5));
             ("p99", Json.Float (Stats.percentile s 0.99));
           ]))
    [ ("edit", "wrx"); ("route_edit", "wr"); ("wait_edit", "x"); ("fault", "f") ];
  let counter k = Table.num (Table.field k (Table.field "counters" doc)) in
  let fast = counter "fast_verdicts" in
  Table.metric o "incr.fast_frac" "fraction" (fast /. Float.max 1. (fast +. counter "replays"));
  Table.metric o "incr.patched_dests" "count" (counter "patched_dests");
  Table.metric o "incr.reemitted_dests" "count" (counter "reemitted_dests");
  Table.not_reached o [ ("serve.cache_hit_frac", "fraction") ];
  if ctx.trace then
    match Pipeline.per_layer ctx o [ Pipeline.Named (algo, Some topo) ] with
    | [ d ] when d = Table.str "baseline" doc -> ()
    | _ -> Table.failure o "cold pipeline report differs from the session baseline"
